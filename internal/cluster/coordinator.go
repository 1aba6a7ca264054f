package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/rlwe"
	"cham/internal/wire"
)

// Config shapes a Coordinator. Zero values select defaults.
type Config struct {
	// Params must match every node's parameter set (required).
	Params bfv.Params
	// Nodes are the shard addresses (at least one required). Any chamserve
	// will do: an eager node prepares every tile at registration, so it can
	// take over any tile after a failure as it is; only the shards
	// chamcluster -spawn starts are lazy (server.Config.LazyTiles).
	Nodes []string
	// Replicas bounds hedged attempts per tile group during the scatter
	// pass: the owner plus Replicas-1 fallback nodes. Default 2, clamped
	// to the cluster size. The re-scatter pass may still visit every node.
	Replicas int
	// HedgeDelay is the floor of the hedging policy, not its trigger: no
	// scatter leg launches a speculative replica sooner than this, however
	// fast the fleet has been. The trigger itself is derived per shard
	// node from the leg latencies the coordinator observes and is budgeted
	// (see hedgePolicy). Hard failures fail over immediately regardless.
	// Default 50ms.
	HedgeDelay time.Duration

	// Log receives the coordinator's structured logs (scatter records at
	// Debug, degraded applies at Warn; sampled requests carry their
	// trace_id).
	// Default: discard.
	Log *slog.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Params.R == nil {
		return c, fmt.Errorf("cluster: Config.Params is required")
	}
	if len(c.Nodes) == 0 {
		return c, fmt.Errorf("cluster: Config.Nodes is required")
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 50 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c, nil
}

// Coordinator owns the shard map: it broadcasts control-plane operations
// (keys, matrix registration) to every node, scatters each apply's row
// tiles along the consistent-hash ring, and gathers the packed
// ciphertexts back into the exact single-node result. The ring and the
// node clients are the ones New builds from Config.Nodes and never change.
type Coordinator struct {
	cfg     Config
	hedge   *hedgePolicy
	ring    *Ring
	clients []*client.Client // in ring.Nodes() order
	closed  atomic.Bool

	mu       sync.RWMutex // guards matrices
	matrices map[[32]byte]wire.MatrixHandle
}

// New builds a coordinator over Config.Nodes. Node connections are
// dialed lazily.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Nodes, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:      cfg,
		hedge:    newHedgePolicy(cfg.HedgeDelay),
		ring:     ring,
		matrices: map[[32]byte]wire.MatrixHandle{},
	}
	// The node clients take the client defaults but never retry — the
	// cluster owns failover: hedging and re-scatter move work to another
	// node faster than in-place retries against a dead one.
	for _, addr := range ring.Nodes() {
		cl, err := client.Dial(client.Config{
			Addr:       addr,
			Params:     cfg.Params,
			MaxRetries: -1, // negative disables the client's retries
		})
		if err != nil {
			co.Close()
			return nil, err
		}
		co.clients = append(co.clients, cl)
	}
	mNodes.Set(float64(len(cfg.Nodes)))
	return co, nil
}

// Close releases every node client; an apply after Close fails.
func (co *Coordinator) Close() {
	co.closed.Store(true)
	for _, cl := range co.clients {
		cl.Close()
	}
}

// Nodes returns the ring membership.
func (co *Coordinator) Nodes() []string {
	return append([]string(nil), co.ring.Nodes()...)
}

// SetupKeys installs the packing-key set on every node at once. All
// nodes must accept, and report the same key hash.
func (co *Coordinator) SetupKeys(keys *lwe.PackingKeys) ([32]byte, error) {
	payload := wire.EncodeSetupKeys(co.cfg.Params.R, keys)
	hashes, err := broadcast(co, "setup keys", func(cl *client.Client) ([32]byte, error) {
		return cl.SetupKeysEncoded(payload)
	})
	if err != nil {
		return [32]byte{}, err
	}
	for i, h := range hashes {
		if h != hashes[0] {
			return [32]byte{}, fmt.Errorf("cluster: node %d reports key hash mismatch", i)
		}
	}
	return hashes[0], nil
}

// RegisterMatrix registers a matrix on every node at once and caches its
// handle. With LazyTiles nodes this is cheap — each node validates and
// retains the cleartext but prepares no tiles until the scatter routes
// work at it.
func (co *Coordinator) RegisterMatrix(A [][]uint64) (wire.MatrixHandle, error) {
	payload, err := wire.EncodeRegisterMatrix(A)
	if err != nil {
		return wire.MatrixHandle{}, err
	}
	handles, err := broadcast(co, "register", func(cl *client.Client) (wire.MatrixHandle, error) {
		return cl.RegisterMatrixEncoded(payload)
	})
	if err != nil {
		return wire.MatrixHandle{}, err
	}
	for i, h := range handles {
		if h != handles[0] {
			return wire.MatrixHandle{}, fmt.Errorf("cluster: node %d reports a different handle", i)
		}
	}
	co.mu.Lock()
	co.matrices[handles[0].ID] = handles[0]
	co.mu.Unlock()
	return handles[0], nil
}

// broadcast makes one control-plane call on every node concurrently and
// returns the answers in node order, or the first failure in node order.
func broadcast[T any](co *Coordinator, what string, call func(*client.Client) (T, error)) ([]T, error) {
	out := make([]T, len(co.clients))
	errs := make([]error, len(co.clients))
	var wg sync.WaitGroup
	for i, cl := range co.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = call(cl)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: %s on node %d: %w", what, i, err)
		}
	}
	return out, nil
}

// Handle returns the cached handle for a registered matrix.
func (co *Coordinator) Handle(id [32]byte) (wire.MatrixHandle, bool) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	h, ok := co.matrices[id]
	return h, ok
}

// groupResult is one scatter leg's outcome.
type groupResult struct {
	node  int // owner node index (the group key)
	tiles []uint32
	res   wire.Result
	err   error
}

// ApplyCtx scatters a registered matrix's row tiles across the ring,
// gathers the per-tile packed ciphertexts, and returns a Result
// bit-identical to a single node serving the whole matrix. Dead or
// straggling shards are covered by hedged replicas; tiles still missing
// after a full re-scatter produce a *DegradedError.
//
// A trace context riding in ctx (trace.NewContext) parents the scatter,
// every hedged per-shard RPC and the gather, so a merged trace shows
// which shard was the critical path. ctx's deadline travels to every
// shard as the leg's deadline hint, and when ctx ends the outstanding
// legs are abandoned and ctx.Err() comes back — the caller gave up; that
// is not a degraded fleet.
func (co *Coordinator) ApplyCtx(ctx context.Context, id [32]byte, vec []*rlwe.Ciphertext) (wire.Result, error) {
	tc := trace.FromContext(ctx)
	handle, ok := co.Handle(id)
	if !ok {
		return wire.Result{}, wire.Errf(wire.CodeUnknownMatrix, "matrix not registered with the cluster")
	}
	if co.closed.Load() {
		return wire.Result{}, fmt.Errorf("cluster: coordinator closed")
	}
	sp := obs.StartSpan(mGatherSec)
	defer sp.End()
	mScatters.Inc()

	tiles := int(handle.Tiles)
	packed := make([]*rlwe.Ciphertext, tiles)
	asg := co.ring.Assign(id, tiles)

	// Scatter pass: one hedged leg per owner with a non-empty tile list.
	// Attempt k of a leg targets the k-th distinct node walking the ring
	// from the group's owner, so failover load spreads the same way
	// ownership does. The leg hedges when the owner has stayed silent past
	// the policy's threshold for it and the budget grants a token; the
	// attempts that lose the race are cancelled, not left to finish.
	sctx, ssp := trace.Start(tc, "coordinator", "scatter")
	addrs := co.ring.Nodes()
	results := make(chan groupResult)
	legs := 0
	for node, list := range asg {
		if len(list) == 0 {
			continue
		}
		legs++
		go func(node int, list []uint32) {
			order := co.ring.Replicas(TileKey(id, list[0]), len(co.clients))
			n := co.cfg.Replicas
			if n > len(order) {
				n = len(order)
			}
			delay := co.hedge.threshold(addrs[order[0]], len(list))
			mHedgeThreshold.Set(delay.Seconds())
			// A refused leg asks again every delay; it counts as denied once,
			// so the counter reads legs throttled, not polls made.
			denied := false
			spend := func() bool {
				if co.hedge.spend() {
					return true
				}
				if !denied {
					denied = true
					mHedgesDenied.Inc()
				}
				return false
			}
			res, _, launched, err := client.Hedged(ctx, n, delay, spend, func(actx context.Context, i int) (wire.Result, error) {
				lctx, lsp := trace.Start(sctx, "coordinator", fmt.Sprintf("shard:%d", order[i]))
				if lsp.Active() {
					lsp.Annotate(fmt.Sprintf("%d tiles", len(list)))
				}
				t0 := time.Now()
				r, e := co.clients[order[i]].TileApplyCtx(trace.NewContext(actx, lctx), id, list, vec)
				switch {
				case e == nil:
					co.hedge.observe(addrs[order[i]], len(list), time.Since(t0))
					mShardOK.Inc()
					lsp.End()
				case errors.Is(e, context.Canceled):
					// Lost the race to another replica: neither a shard
					// failure nor a latency sample.
					mHedgeCancels.Inc()
					lsp.Annotate("cancelled")
					lsp.End()
				default:
					mShardErr.Inc()
					lsp.EndErr(e)
				}
				return r, e
			})
			co.hedge.legDone()
			if launched > 1 {
				mHedges.Add(uint64(launched - 1))
			}
			results <- groupResult{node: node, tiles: list, res: res, err: err}
		}(node, list)
	}

	var missing []uint32
	var lastErr error
	for i := 0; i < legs; i++ {
		g := <-results
		if g.err != nil {
			missing = append(missing, g.tiles...)
			lastErr = g.err
			continue
		}
		for k, t := range g.res.Tiles {
			packed[t] = g.res.Packed[k]
		}
	}
	ssp.End()
	if err := ctx.Err(); err != nil {
		return wire.Result{}, err
	}

	// Re-scatter pass: any node can serve any tile (every node registered
	// the matrix, and prepares a tile lazily), so walk the whole ring once
	// more for the leftovers.
	gctx, gsp := trace.Start(tc, "coordinator", "gather")
	defer gsp.End()
	if len(missing) > 0 {
		slices.Sort(missing) // the wire layer requires strictly ascending tile lists
		mRescatters.Inc()
		co.cfg.Log.Debug("re-scatter",
			"trace_id", traceLabel(tc), "missing", len(missing))
		order := co.ring.Replicas(TileKey(id, missing[0]), len(co.clients))
		for _, ni := range order {
			lctx, lsp := trace.Start(gctx, "coordinator", fmt.Sprintf("rescatter:%d", ni))
			res, err := co.clients[ni].TileApplyCtx(trace.NewContext(ctx, lctx), id, missing, vec)
			lsp.EndErr(err)
			if err != nil {
				mShardErr.Inc()
				lastErr = err
				continue
			}
			mShardOK.Inc()
			for k, t := range res.Tiles {
				packed[t] = res.Packed[k]
			}
			missing = nil
			break
		}
	}

	if len(missing) > 0 {
		mDegraded.Inc()
		co.cfg.Log.Warn("degraded scatter",
			"trace_id", traceLabel(tc), "missing", len(missing), "nodes", len(co.clients))
		return wire.Result{}, &DegradedError{Missing: missing, Nodes: len(co.clients), Last: lastErr}
	}
	for t, ct := range packed {
		if ct == nil {
			return wire.Result{}, fmt.Errorf("cluster: gather left tile %d empty", t)
		}
	}
	return wire.Result{M: handle.Rows, N: uint32(co.cfg.Params.R.N), Packed: packed}, nil
}

// traceLabel renders a context's trace ID for logs ("-" when unsampled).
func traceLabel(tc trace.Context) string {
	if !tc.Sampled() {
		return "-"
	}
	return tc.Trace.String()
}
