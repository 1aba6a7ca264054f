package cluster

import (
	"slices"
	"sync"
	"time"
)

// The hedging policy's shape. None of these is configuration: the window
// and the sample minimum only decide how quickly the threshold follows
// the fleet, and the ratio and burst are the bound on redundant work
// (time-triggered hedges ≤ hedgeRatio × legs + hedgeBurst) that keeps a
// hedge from feeding the load that caused it.
const (
	hedgeWindow     = 64   // successful leg latencies remembered per node
	hedgeMinSamples = 8    // below this a node's threshold is the floor alone
	hedgeRatio      = 0.05 // tokens earned per completed scatter leg
	hedgeBurst      = 2.0  // token cap, and the balance a coordinator starts with
)

// hedgePolicy decides when a scatter leg that has not answered yet is a
// straggler worth duplicating, from what the coordinator already sees:
// per shard node, the recent successful leg latencies per tile. A leg of k
// tiles hedges at max(floor, k × p95) — so the trigger tracks the honest
// service time instead of sitting at a constant that every leg of a loaded
// or merely slower fleet exceeds — and each time-triggered hedge spends a
// token from one bucket per coordinator. Hard failures never come here:
// failing over from a dead node is not speculative and is not budgeted.
type hedgePolicy struct {
	floor time.Duration // Config.HedgeDelay: no leg hedges sooner

	mu     sync.Mutex
	tokens float64
	nodes  map[string]*latencyWindow // by node address
}

// latencyWindow is a ring of one node's last per-tile leg latencies.
type latencyWindow struct {
	perTile [hedgeWindow]time.Duration
	n, next int // samples held, slot the next one overwrites
}

func newHedgePolicy(floor time.Duration) *hedgePolicy {
	return &hedgePolicy{floor: floor, tokens: hedgeBurst, nodes: map[string]*latencyWindow{}}
}

// threshold is how long a leg of the given tile count may stay unanswered
// on node before it counts as straggling.
func (h *hedgePolicy) threshold(node string, tiles int) time.Duration {
	h.mu.Lock()
	w := h.nodes[node]
	if w == nil || w.n < hedgeMinSamples {
		h.mu.Unlock()
		return h.floor
	}
	sorted := w.perTile
	n := w.n
	h.mu.Unlock()
	s := sorted[:n]
	slices.Sort(s)
	p95 := s[(n*95+99)/100-1] // nearest-rank percentile
	if d := time.Duration(tiles) * p95; d > h.floor {
		return d
	}
	return h.floor
}

// observe records one successful leg: tiles tiles answered by node in d.
func (h *hedgePolicy) observe(node string, tiles int, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.nodes[node]
	if w == nil {
		w = &latencyWindow{}
		h.nodes[node] = w
	}
	w.perTile[w.next] = d / time.Duration(tiles)
	w.next = (w.next + 1) % hedgeWindow
	if w.n < hedgeWindow {
		w.n++
	}
}

// legDone credits the budget for one completed scatter leg.
func (h *hedgePolicy) legDone() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens += hedgeRatio; h.tokens > hedgeBurst {
		h.tokens = hedgeBurst
	}
}

// spend asks for one time-triggered hedge; false means the budget is empty
// and the leg keeps waiting on the attempt it has.
func (h *hedgePolicy) spend() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens < 1 {
		return false
	}
	h.tokens--
	return true
}
