package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"cham/internal/client"
)

// These tests feed the policy synthetic durations: no network, no clock.

const ms = time.Millisecond

// TestHedgeThreshold: the floor alone until a node has hedgeMinSamples,
// tiles × p95 of that node's per-tile latency after, never under the
// floor, and strictly per node.
func TestHedgeThreshold(t *testing.T) {
	h := newHedgePolicy(50 * ms)
	if got := h.threshold("fast", 2); got != 50*ms {
		t.Fatalf("no samples: threshold %v, want the 50ms floor", got)
	}
	for i := 0; i < hedgeMinSamples-1; i++ {
		h.observe("fast", 2, 400*ms)
	}
	if got := h.threshold("fast", 2); got != 50*ms {
		t.Fatalf("%d samples: threshold %v, want the floor until %d", hedgeMinSamples-1, got, hedgeMinSamples)
	}
	h.observe("fast", 2, 400*ms) // the eighth: 200ms per tile across the board
	if got := h.threshold("fast", 2); got != 400*ms {
		t.Fatalf("2-tile leg: threshold %v, want 2 x 200ms", got)
	}
	if got := h.threshold("fast", 3); got != 600*ms {
		t.Fatalf("3-tile leg: threshold %v, want 3 x 200ms", got)
	}

	// p95, not the maximum and not the median: 100 legs of 1..100 ms per
	// tile leave the last 64 (37..100) in the window, whose nearest-rank
	// p95 is the 61st of them.
	for i := 1; i <= 100; i++ {
		h.observe("ramp", 1, time.Duration(i)*ms)
	}
	if got, want := h.threshold("ramp", 1), 97*ms; got != want {
		t.Fatalf("ramp node: threshold %v, want %v (p95 of the last %d samples)", got, want, hedgeWindow)
	}

	// A fleet faster than the floor never hedges sooner than the floor.
	for i := 0; i < hedgeWindow; i++ {
		h.observe("quick", 2, 2*ms)
	}
	if got := h.threshold("quick", 2); got != 50*ms {
		t.Fatalf("fast node: threshold %v fell under the 50ms floor", got)
	}

	// A slow node raises its own threshold and nobody else's.
	for i := 0; i < hedgeWindow; i++ {
		h.observe("slow", 1, 900*ms)
	}
	if got := h.threshold("slow", 1); got != 900*ms {
		t.Fatalf("slow node: threshold %v, want 900ms", got)
	}
	if got := h.threshold("quick", 2); got != 50*ms {
		t.Fatalf("slow node moved the fast node's threshold to %v", got)
	}
	if got := h.threshold("fast", 2); got != 400*ms {
		t.Fatalf("slow node moved another node's threshold to %v", got)
	}
}

// TestHedgeBudget: over 1,000 legs that all outlast their threshold the
// policy grants at most hedgeRatio × legs + hedgeBurst time-triggered
// hedges, while every hard failure among them still fails over at once —
// through the real client.Hedged, whose hour-long delay never fires, so
// the only way to a second attempt is the unbudgeted failure path.
func TestHedgeBudget(t *testing.T) {
	h := newHedgePolicy(50 * ms)
	const legs = 1000
	granted, failovers := 0, 0
	down := errors.New("replica down")
	for leg := 0; leg < legs; leg++ {
		if leg%10 == 0 {
			// A dead owner: attempt 0 fails hard.
			v, winner, launched, err := client.Hedged(context.Background(), 2, time.Hour, h.spend,
				func(_ context.Context, i int) (int, error) {
					if i == 0 {
						return 0, down
					}
					return 1, nil
				})
			if err != nil || v != 1 || winner != 1 || launched != 2 {
				t.Fatalf("leg %d: hard failure did not fail over: (%d, %d, %d, %v)", leg, v, winner, launched, err)
			}
			failovers++
		} else if h.spend() { // a straggler: the delay expired, ask the budget
			granted++
		}
		h.legDone()
	}
	if max := int(hedgeRatio*legs + hedgeBurst); granted > max {
		t.Fatalf("%d time-triggered hedges over %d legs, budget allows %d", granted, legs, max)
	}
	if granted < int(hedgeRatio*legs)-5 {
		t.Fatalf("only %d hedges granted over %d straggling legs: the bucket is not refilling at %.0f%%", granted, legs, 100*hedgeRatio)
	}
	if failovers != legs/10 {
		t.Fatalf("%d failovers, want %d", failovers, legs/10)
	}
}

// cascade is a closed-loop model of the scatter tier: width concurrent
// legs per round on two nodes, base durations spread around a median, and
// every hedge launched in one round lengthening every leg of the next by
// a fixed factor (a hedge is extra load on cores the legs share, and the
// callers are closed-loop, so the load persists). It returns the work
// amplification: attempts launched per leg.
func cascade(rounds int, hedge func(node string, tiles int, d time.Duration) bool, done func(node string, tiles int, d time.Duration)) float64 {
	const (
		width    = 4    // 2 callers x 2 shards
		tiles    = 2    // per leg
		perHedge = 0.35 // slowdown each live hedge inflicts on concurrent legs
	)
	median := 100 * ms
	spread := []float64{0.85, 1.10, 0.95, 1.05, 1.00, 1.20, 0.90, 1.15, 1.00, 1.02, 0.98, 1.60}
	nodes := []string{"a", "b"}
	legs, attempts, live := 0, 0, 0
	for r := 0; r < rounds; r++ {
		load := 1 + perHedge*float64(live)
		live = 0
		for l := 0; l < width; l++ {
			node := nodes[l%len(nodes)]
			d := time.Duration(float64(median) * spread[legs%len(spread)] * load)
			legs++
			attempts++
			if hedge(node, tiles, d) {
				attempts++
				live++
			}
			done(node, tiles, d)
		}
	}
	return float64(attempts) / float64(legs)
}

// TestHedgeCascade guards the regression this policy exists for. With the
// hedge delay a constant equal to the median leg — where PRs 14 and 16
// put cluster_scatter, and where three runs of identical code read
// 262 / 437 / 256 ms — about half the legs hedge, the hedges slow the
// next legs, and soon every leg hedges: the model's amplification under
// the old rule goes to ~2. Under the policy, at the same floor, it must
// stay ≤ 1.1: the threshold moves off the median as soon as there is
// evidence, and the budget caps what slips through before and after.
func TestHedgeCascade(t *testing.T) {
	const rounds = 300
	floor := 100 * ms // equal to the model's median leg

	constant := cascade(rounds,
		func(_ string, _ int, d time.Duration) bool { return d > floor },
		func(string, int, time.Duration) {})
	if constant < 1.5 {
		t.Fatalf("the model no longer cascades under a constant delay (amplification %.2f): it cannot guard anything", constant)
	}

	h := newHedgePolicy(floor)
	adaptive := cascade(rounds,
		func(node string, tiles int, d time.Duration) bool {
			return d > h.threshold(node, tiles) && h.spend()
		},
		func(node string, tiles int, d time.Duration) {
			h.observe(node, tiles, d)
			h.legDone()
		})
	if adaptive > 1.1 {
		t.Fatalf("amplification %.3f at a floor equal to the median leg, want <= 1.1 (constant delay: %.2f)", adaptive, constant)
	}
	t.Logf("amplification at floor == median leg: constant delay %.2f, policy %.3f", constant, adaptive)
}
