package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
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
	// Nodes are the shard addresses (at least one required). Every node
	// should run chamserve with LazyTiles so any node can take over any
	// tile after a failure.
	Nodes []string
	// VNodes is the virtual-node count per node (default DefaultVNodes).
	VNodes int
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

	// Per-node client knobs, passed through to client.Dial.
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	// NodeRetries is each node client's internal retry budget. Default 0
	// (disabled): the cluster owns failover — hedging and re-scatter move
	// work to another node faster than in-place retries against a dead one.
	NodeRetries int
	MaxFrame    uint32

	// Log receives the coordinator's structured logs (scatter records at
	// Debug, membership at Info; sampled requests carry their trace_id).
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
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second // the node clients' default, made visible to the gateway
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c, nil
}

// matrixState is the coordinator's replicated-registry cache entry.
type matrixState struct {
	handle  wire.MatrixHandle
	payload []byte // canonical RegisterMatrix encoding, for warm-up pushes
}

// Coordinator owns the shard map: it broadcasts control-plane operations
// (keys, matrix registration) to every node, scatters each apply's row
// tiles along the consistent-hash ring, and gathers the packed
// ciphertexts back into the exact single-node result.
type Coordinator struct {
	cfg   Config
	hedge *hedgePolicy

	mu       sync.RWMutex
	ring     *Ring
	clients  map[string]*client.Client
	keys     []byte // canonical SetupKeys payload ("" until SetupKeys)
	keyHash  [32]byte
	matrices map[[32]byte]matrixState
}

// New builds a coordinator. Node connections are dialed lazily.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:      cfg,
		hedge:    newHedgePolicy(cfg.HedgeDelay),
		ring:     ring,
		clients:  map[string]*client.Client{},
		matrices: map[[32]byte]matrixState{},
	}
	for _, addr := range cfg.Nodes {
		cl, err := co.dialNode(addr)
		if err != nil {
			co.Close()
			return nil, err
		}
		co.clients[addr] = cl
	}
	mNodes.Set(float64(len(cfg.Nodes)))
	return co, nil
}

func (co *Coordinator) dialNode(addr string) (*client.Client, error) {
	retries := co.cfg.NodeRetries
	if retries <= 0 {
		retries = -1 // client treats negative as "retries disabled"
	}
	return client.Dial(client.Config{
		Addr:           addr,
		Params:         co.cfg.Params,
		DialTimeout:    co.cfg.DialTimeout,
		RequestTimeout: co.cfg.RequestTimeout,
		MaxRetries:     retries,
		MaxFrame:       co.cfg.MaxFrame,
	})
}

// Close releases every node client.
func (co *Coordinator) Close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, cl := range co.clients {
		cl.Close()
	}
	co.clients = map[string]*client.Client{}
}

// Nodes returns the current ring membership.
func (co *Coordinator) Nodes() []string {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return append([]string(nil), co.ring.Nodes()...)
}

// snapshot captures the ring and client set for one lock-free operation.
func (co *Coordinator) snapshot() (*Ring, []*client.Client) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	r := co.ring
	cls := make([]*client.Client, len(r.Nodes()))
	for i, addr := range r.Nodes() {
		cls[i] = co.clients[addr]
	}
	return r, cls
}

// SetupKeys installs the packing-key set on every node and caches the
// canonical payload for warm-up transfers. All nodes must accept.
func (co *Coordinator) SetupKeys(keys *lwe.PackingKeys) ([32]byte, error) {
	payload := wire.EncodeSetupKeys(co.cfg.Params.R, keys)
	_, cls := co.snapshot()
	var hash [32]byte
	for i, cl := range cls {
		h, err := cl.SetupKeys(keys)
		if err != nil {
			return [32]byte{}, fmt.Errorf("cluster: setup keys on node %d: %w", i, err)
		}
		if i > 0 && h != hash {
			return [32]byte{}, fmt.Errorf("cluster: node %d reports key hash mismatch", i)
		}
		hash = h
	}
	co.mu.Lock()
	co.keys = payload
	co.keyHash = hash
	co.mu.Unlock()
	return hash, nil
}

// RegisterMatrix registers a matrix on every node and caches the
// canonical payload. With LazyTiles nodes this is cheap — each node
// validates and retains the cleartext but prepares no tiles until the
// scatter routes work at it.
func (co *Coordinator) RegisterMatrix(A [][]uint64) (wire.MatrixHandle, error) {
	payload, err := wire.EncodeRegisterMatrix(A)
	if err != nil {
		return wire.MatrixHandle{}, err
	}
	_, cls := co.snapshot()
	var handle wire.MatrixHandle
	for i, cl := range cls {
		h, err := cl.RegisterMatrix(A)
		if err != nil {
			return wire.MatrixHandle{}, fmt.Errorf("cluster: register on node %d: %w", i, err)
		}
		if i > 0 && h != handle {
			return wire.MatrixHandle{}, fmt.Errorf("cluster: node %d reports a different handle", i)
		}
		handle = h
	}
	co.mu.Lock()
	co.matrices[handle.ID] = matrixState{handle: handle, payload: payload}
	co.mu.Unlock()
	return handle, nil
}

// Handle returns the cached handle for a registered matrix.
func (co *Coordinator) Handle(id [32]byte) (wire.MatrixHandle, bool) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	ms, ok := co.matrices[id]
	return ms.handle, ok
}

// groupResult is one scatter leg's outcome.
type groupResult struct {
	node  int // owner node index (the group key)
	tiles []uint32
	res   wire.TileResult
	err   error
}

// Apply scatters a registered matrix's row tiles across the ring,
// gathers the per-tile packed ciphertexts, and returns a Result
// bit-identical to a single node serving the whole matrix. Dead or
// straggling shards are covered by hedged replicas; tiles still missing
// after a full re-scatter produce a *DegradedError.
func (co *Coordinator) Apply(id [32]byte, vec []*rlwe.Ciphertext) (wire.Result, error) {
	return co.ApplyCtx(context.TODO(), id, vec)
}

// ApplyCtx is Apply under a context. A trace context riding in ctx
// (trace.NewContext) parents the scatter, every hedged per-shard RPC and
// the gather, so a merged trace shows which shard was the critical path.
// ctx's deadline travels to every shard as the leg's deadline hint, and
// when ctx ends the outstanding legs are abandoned and ctx.Err() comes
// back — the caller gave up; that is not a degraded fleet.
func (co *Coordinator) ApplyCtx(ctx context.Context, id [32]byte, vec []*rlwe.Ciphertext) (wire.Result, error) {
	tc := trace.FromContext(ctx)
	handle, ok := co.Handle(id)
	if !ok {
		return wire.Result{}, wire.Errf(wire.CodeUnknownMatrix, "matrix not registered with the cluster")
	}
	ring, cls := co.snapshot()
	if len(cls) == 0 {
		return wire.Result{}, fmt.Errorf("cluster: coordinator closed")
	}
	sp := obs.StartSpan(mGatherSec)
	defer sp.End()
	mScatters.Inc()

	tiles := int(handle.Tiles)
	packed := make([]*rlwe.Ciphertext, tiles)
	asg := ring.Assign(id, tiles)

	// Scatter pass: one hedged leg per owner with a non-empty tile list.
	// Attempt k of a leg targets the k-th distinct node walking the ring
	// from the group's owner, so failover load spreads the same way
	// ownership does. The leg hedges when the owner has stayed silent past
	// the policy's threshold for it and the budget grants a token; the
	// attempts that lose the race are cancelled, not left to finish.
	sctx, ssp := trace.Start(tc, "coordinator", "scatter")
	addrs := ring.Nodes()
	results := make(chan groupResult)
	legs := 0
	for node, list := range asg {
		if len(list) == 0 {
			continue
		}
		legs++
		go func(node int, list []uint32) {
			order := ring.Replicas(TileKey(id, list[0]), len(cls))
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
			res, _, launched, err := client.Hedged(ctx, n, delay, spend, func(actx context.Context, i int) (wire.TileResult, error) {
				lctx, lsp := trace.Start(sctx, "coordinator", fmt.Sprintf("shard:%d", order[i]))
				if lsp.Active() {
					lsp.Annotate(fmt.Sprintf("%d tiles", len(list)))
				}
				t0 := time.Now()
				r, e := cls[order[i]].TileApplyCtx(trace.NewContext(actx, lctx), id, list, vec)
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

	// Re-scatter pass: any node can serve any tile (replicated registry +
	// lazy prepare), so walk the whole ring once more for the leftovers.
	gctx, gsp := trace.Start(tc, "coordinator", "gather")
	defer gsp.End()
	if len(missing) > 0 {
		sortTiles(missing)
		mRescatters.Inc()
		co.cfg.Log.Debug("re-scatter",
			"trace_id", traceLabel(tc), "missing", len(missing))
		order := ring.Replicas(TileKey(id, missing[0]), len(cls))
		for _, ni := range order {
			lctx, lsp := trace.Start(gctx, "coordinator", fmt.Sprintf("rescatter:%d", ni))
			res, err := cls[ni].TileApplyCtx(trace.NewContext(ctx, lctx), id, missing, vec)
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
			"trace_id", traceLabel(tc), "missing", len(missing), "nodes", len(cls))
		return wire.Result{}, &DegradedError{Missing: missing, Nodes: len(cls), Last: lastErr}
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

// sortTiles orders a small tile list ascending (insertion sort — the
// wire layer requires strictly ascending tile lists).
func sortTiles(ts []uint32) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// Join adds a node to the ring: replicate the registry onto it (pulled
// from a live node when possible, the coordinator's cache otherwise),
// warm the tiles the new ring assigns to it, then commit the membership
// change. Applies racing a Join see either ring, both of which cover
// every tile.
func (co *Coordinator) Join(addr string) error {
	co.mu.RLock()
	_, exists := co.clients[addr]
	oldNodes := append([]string(nil), co.ring.Nodes()...)
	keys := co.keys
	mats := make([]matrixState, 0, len(co.matrices))
	for _, ms := range co.matrices {
		mats = append(mats, ms)
	}
	co.mu.RUnlock()
	if exists {
		return fmt.Errorf("cluster: node %s already in the ring", addr)
	}

	// Prefer a live node's registry over the local cache: the pull path is
	// what a coordinator recovering from restart would rely on.
	_, cls := co.snapshot()
	for _, cl := range cls {
		st, err := cl.RegistryPull()
		if err != nil {
			continue
		}
		if len(st.Keys) > 0 {
			keys = st.Keys
		}
		if len(st.Matrices) > 0 {
			payloads := make([]matrixState, 0, len(st.Matrices))
			for _, p := range st.Matrices {
				payloads = append(payloads, matrixState{payload: p})
			}
			// Keep the cached handles; the pull only refreshes payload bytes.
			for i := range payloads {
				for _, ms := range mats {
					if string(ms.payload) == string(payloads[i].payload) {
						payloads[i].handle = ms.handle
					}
				}
			}
			mats = payloads
		}
		break
	}

	joiner, err := co.dialNode(addr)
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(mats))
	for i, ms := range mats {
		payloads[i] = ms.payload
	}
	if len(keys) > 0 || len(payloads) > 0 {
		if _, err := joiner.RegistryPush(keys, payloads); err != nil {
			joiner.Close()
			return fmt.Errorf("cluster: warm-up push to %s: %w", addr, err)
		}
	}

	newRing, err := NewRing(append(oldNodes, addr), co.cfg.VNodes)
	if err != nil {
		joiner.Close()
		return err
	}

	// Warm the tiles the new ring hands to the joiner so its first real
	// request doesn't eat the lazy-prepare cost.
	joinerIdx := len(oldNodes)
	for _, ms := range mats {
		if ms.handle.Tiles == 0 {
			continue
		}
		owned := newRing.Assign(ms.handle.ID, int(ms.handle.Tiles))[joinerIdx]
		if len(owned) == 0 {
			continue
		}
		if err := joiner.WarmTiles(ms.handle.ID, owned); err != nil {
			joiner.Close()
			return fmt.Errorf("cluster: warm tiles on %s: %w", addr, err)
		}
	}

	co.mu.Lock()
	co.ring = newRing
	co.clients[addr] = joiner
	co.mu.Unlock()
	mJoins.Inc()
	mNodes.Set(float64(len(newRing.Nodes())))
	co.cfg.Log.Info("node joined", "addr", addr, "nodes", len(newRing.Nodes()))
	return nil
}
