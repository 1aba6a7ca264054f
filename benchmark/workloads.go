package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"cham"
	"cham/internal/chamnp"
	"cham/internal/client"
	"cham/internal/cluster"
	"cham/internal/core"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/wire"
)

// The four workload names are fixed: later issues cite them.
const (
	wlHMVP    = "hmvp_design_point"
	wlMatMul  = "matmul_fresh_wide"
	wlServe   = "serve_open_loop"
	wlCluster = "cluster_scatter"
)

// vectorPool is how many distinct cleartext vectors (with precomputed
// products) an in-order workload cycles through.
const vectorPool = 8

var errMismatch = errors.New("decrypted product differs from cham.PlainMatVec")

// callers is the load the single generator process applies: min(nproc, 4)
// callers or connections, so the generator never outnumbers the cores it
// shares with the system under test.
func callers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func newWorkload(cfg runConfig) (workload, error) {
	n := 4096
	if cfg.smoke {
		n = 256
	}
	b := base{cfg: cfg, stage: map[string]float64{}}
	switch cfg.workload {
	case wlHMVP:
		// The paper's design point: one 256 x N matrix, one chunk, 255 merges.
		return &hmvpDesignPoint{base: b, n: n, rows: pick(cfg.smoke, 16, 256), cols: n}, nil
	case wlMatMul:
		// Features x samples, the HeteroLR orientation: few rows, 4 chunks.
		return &matmulFreshWide{base: b, n: n, rows: pick(cfg.smoke, 8, 32), cols: 4 * n, lanes: 4, poolSize: 8}, nil
	case wlServe:
		return &serveOpenLoop{base: b, n: n, rows: pick(cfg.smoke, 16, 64), cols: n, rate: 8}, nil
	case wlCluster:
		// A tile is N rows, so four tiles at N=4096 would hold >1 GB prepared.
		cn := pick(cfg.smoke, 256, 512)
		return &clusterScatter{base: b, n: cn, rows: 4 * cn, cols: cn, shards: 2}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s, %s)", cfg.workload, wlHMVP, wlMatMul, wlServe, wlCluster)
}

func pick(smoke bool, small, full int) int {
	if smoke {
		return small
	}
	return full
}

// base is what every workload's set-up starts with: parameters, a secret
// key, an evaluator with packing keys, and one randomness source per lane.
type base struct {
	cfg   runConfig
	p     cham.Params
	sk    *cham.SecretKey
	ev    *cham.Evaluator
	rng   *rand.Rand   // set-up stream: keys, matrices, vectors
	rngs  []*rand.Rand // per caller lane: encryption randomness
	stage map[string]float64
}

func (b *base) stages() map[string]float64 { return b.stage }

// timed records how long a part of set-up took, under the name of the
// per-layer metric that reports it.
func (b *base) timed(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	b.stage[name] = ms(time.Since(t0))
	return err
}

// keygen builds parameters, the secret key and an evaluator whose packing
// keys cover tiles of maxRows rows, all from the seed.
func (b *base) keygen(n, maxRows, lanes int) error {
	p, err := cham.NewParams(n)
	if err != nil {
		return err
	}
	b.p = p
	b.rng = cham.NewRNG(b.cfg.seed)
	b.rngs = make([]*rand.Rand, lanes)
	for l := range b.rngs {
		b.rngs[l] = cham.NewRNG(b.cfg.seed*7919 + int64(l) + 1)
	}
	_ = b.timed("bfv.keygen_ms", func() error { b.sk = p.KeyGen(b.rng); return nil })
	return b.timed("lwe.packkeys_gen_ms", func() error {
		b.ev, err = cham.NewEvaluator(p, b.rng, b.sk, maxRows)
		return err
	})
}

// products precomputes the expected A·v for each pooled vector.
func (b *base) products(a [][]uint64, vecs [][]uint64) [][]uint64 {
	want := make([][]uint64, len(vecs))
	for k, v := range vecs {
		want[k] = cham.PlainMatVec(b.p, a, v)
	}
	return want
}

func equalVec(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// verify is the untimed compare every operation ends with.
func verify(t *opTrace, got, want []uint64) error {
	h := t.begin("verify")
	ok := equalVec(got, want)
	t.end(h)
	if !ok {
		return errMismatch
	}
	return nil
}

// ---- hmvp_design_point ------------------------------------------------

// hmvpDesignPoint is the paper's headline shape run in-process: the pack
// tree does most of the work, Prepare lands in set-up, no serving layer
// runs. It is held to one thread (procs 1, so Evaluator.Workers defaults
// to 1): on two shared cores every parallel section waits for the slower
// one, which doubles the run-to-run spread.
type hmvpDesignPoint struct {
	base
	n, rows, cols int
	a             [][]uint64
	vecs, want    [][]uint64
	pm            *core.PreparedMatrix
	res           *cham.Result
}

func (w *hmvpDesignPoint) info() workloadInfo {
	return workloadInfo{rowsPerOp: w.rows, sloMs: 600, callers: 1, procs: 1}
}

func (w *hmvpDesignPoint) setup() error {
	if err := w.keygen(w.n, w.rows, 1); err != nil {
		return err
	}
	w.a = randMatrix(w.rng, w.p.T.Q, w.rows, w.cols)
	w.vecs = randMatrix(w.rng, w.p.T.Q, vectorPool, w.cols)
	w.want = w.products(w.a, w.vecs)
	pm, err := w.ev.Prepare(w.a)
	if err != nil {
		return err
	}
	w.pm, w.res = pm, pm.NewResult()
	return nil
}

func (w *hmvpDesignPoint) teardown() { w.pm, w.res, w.a = nil, nil, nil }

func (w *hmvpDesignPoint) op(t *opTrace, lane, i int) (time.Time, error) {
	k := i % len(w.vecs)
	h := t.begin("bfv.encrypt")
	ct := cham.EncryptVector(w.p, w.rngs[lane], w.sk, w.vecs[k])
	t.end(h)
	h = t.begin("core.apply")
	err := w.pm.ApplyInto(w.res, ct)
	t.end(h)
	if err != nil {
		return time.Now(), err
	}
	h = t.begin("bfv.decrypt")
	got := cham.DecryptResult(w.p, w.res, w.sk)
	t.end(h)
	end := time.Now()
	return end, verify(t, got, w.want[k])
}

func (w *hmvpDesignPoint) probes(pl perLayer, budget time.Duration) error {
	_, err := kernelProbes(pl, w.kernelEnv(w.a, w.vecs[0], 1), budget)
	return err
}

func (b *base) kernelEnv(a [][]uint64, vec []uint64, batch int) kernelEnv {
	return kernelEnv{p: b.p, sk: b.sk, ev: b.ev, rng: b.rng, a: a, vec: vec, batch: batch}
}

// ---- matmul_fresh_wide ------------------------------------------------

// matmulFreshWide is W·X with weights that change every step: each op
// prepares the next pooled matrix and multiplies a 4-column operand, so
// Prepare and the row MACs dominate and the tree is short. It is the
// write-beside-read use of core: work moved from Apply into Prepare shows
// here as a loss. One thread, as hmvpDesignPoint.
type matmulFreshWide struct {
	base
	n, rows, cols   int
	lanes, poolSize int
	pool            [][][]uint64 // the changing weights
	x               [][]uint64   // cols x lanes cleartext operand
	want            [][][]uint64 // per pooled matrix: rows x lanes product
	dst             *chamnp.EncMatrix
}

func (w *matmulFreshWide) info() workloadInfo {
	return workloadInfo{rowsPerOp: w.rows * w.lanes, sloMs: 600, callers: 1, procs: 1}
}

func (w *matmulFreshWide) setup() error {
	if err := w.keygen(w.n, w.rows, 1); err != nil {
		return err
	}
	t := w.p.T.Q
	w.pool = matrixPool(w.rng, t, w.poolSize, w.rows, w.cols)
	w.x = randMatrix(w.rng, t, w.cols, w.lanes)
	col := make([]uint64, w.cols)
	w.want = make([][][]uint64, w.poolSize)
	for k, a := range w.pool {
		w.want[k] = make([][]uint64, w.rows)
		for i := range w.want[k] {
			w.want[k][i] = make([]uint64, w.lanes)
		}
		for j := 0; j < w.lanes; j++ {
			for i := range col {
				col[i] = w.x[i][j]
			}
			for i, v := range cham.PlainMatVec(w.p, a, col) {
				w.want[k][i][j] = v
			}
		}
	}
	// The packed output is allocated once, as NewMatMulResult intends;
	// its shape is the same for every pooled matrix.
	pm, err := w.ev.Prepare(w.pool[0])
	if err != nil {
		return err
	}
	x, err := chamnp.Array(w.p, w.rngs[0], w.sk, w.x, chamnp.ColMajor)
	if err != nil {
		return err
	}
	w.dst, err = chamnp.NewMatMulResult(chamnp.Local(pm), x)
	return err
}

func (w *matmulFreshWide) teardown() { w.pool, w.dst = nil, nil }

func (w *matmulFreshWide) op(t *opTrace, lane, i int) (time.Time, error) {
	k := i % len(w.pool)
	h := t.begin("bfv.encrypt")
	x, err := chamnp.Array(w.p, w.rngs[lane], w.sk, w.x, chamnp.ColMajor)
	t.end(h)
	if err != nil {
		return time.Now(), err
	}
	h = t.begin("core.prepare")
	pm, err := w.ev.Prepare(w.pool[k])
	t.end(h)
	if err != nil {
		return time.Now(), err
	}
	h = t.begin("chamnp.matmul")
	err = chamnp.MatMulInto(chamnp.Local(pm), w.dst, x)
	t.end(h)
	if err != nil {
		return time.Now(), err
	}
	h = t.begin("bfv.decrypt")
	got := w.dst.Decrypt(w.sk)
	t.end(h)
	end := time.Now()
	h = t.begin("verify")
	ok := len(got) == len(w.want[k])
	for r := 0; ok && r < len(got); r++ {
		ok = equalVec(got[r], w.want[k][r])
	}
	t.end(h)
	if !ok {
		return end, errMismatch
	}
	return end, nil
}

func (w *matmulFreshWide) probes(pl perLayer, budget time.Duration) error {
	col := make([]uint64, w.cols)
	for i := range col {
		col[i] = w.x[i][0]
	}
	k, err := kernelProbes(pl, w.kernelEnv(w.pool[0], col, w.lanes), budget)
	if err != nil {
		return err
	}
	var x *chamnp.EncMatrix
	enc, err := timeReps(budget, func() (err error) {
		x, err = chamnp.Array(w.p, w.rng, w.sk, w.x, chamnp.ColMajor)
		return err
	})
	if err != nil {
		return err
	}
	pl["chamnp.array_encrypt_ms_p50"] = p50(enc)
	mm, err := timeReps(budget, func() error { return chamnp.MatMulInto(chamnp.Local(k.pm), w.dst, x) })
	if err != nil {
		return err
	}
	pl["chamnp.matmul_ms_p50"] = p50(mm)
	if b := pl["core.apply_batch_ms_p50"]; b > 0 {
		pl["chamnp.overhead_ratio"] = p50(mm)/b - 1
	}
	return nil
}

// ---- serving fleets ---------------------------------------------------

// chamserveCard is the card mirror cmd/chamserve builds with no flags:
// 2 engines, 200 µs per job.
func chamserveCard() (*rt.Runtime, error) {
	return rt.New(rt.NewDevice(2, 200*time.Microsecond, rt.FaultPlan{}))
}

// node is one in-process server on a loopback listener.
type node struct {
	srv  *server.Server
	addr string
	done chan error
}

func startNode(cfg server.Config) (*node, error) {
	card, err := chamserveCard()
	if err != nil {
		return nil, err
	}
	cfg.Card = card
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ln) }()
	return n, nil
}

// stop drains the server and waits for its accept loop to return.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a drain that times out still closed every connection
	<-n.done
}

// remote is the client side shared by both serving workloads: a pooled
// client with library defaults, the registered matrix and the pooled
// vectors with their expected products.
type remote struct {
	cl         *client.Client
	h          wire.MatrixHandle
	a          [][]uint64
	vecs, want [][]uint64
}

// install dials addr, ships the packing keys and registers the matrix.
func (r *remote) install(b *base, addr string) error {
	cl, err := client.Dial(client.Config{Addr: addr, Params: b.p})
	if err != nil {
		return err
	}
	r.cl = cl
	if err := b.timed("server.setup_keys_ms", func() error {
		_, err := cl.SetupKeys(b.ev.Keys)
		return err
	}); err != nil {
		return fmt.Errorf("setup keys: %w", err)
	}
	if err := b.timed("server.register_ms", func() error {
		r.h, err = cl.RegisterMatrix(r.a)
		return err
	}); err != nil {
		return fmt.Errorf("register matrix: %w", err)
	}
	return nil
}

// close releases the client's pooled connections.
func (r *remote) close() {
	if r.cl != nil {
		r.cl.Close()
		r.cl = nil
	}
}

// apply is one remote operation: encrypt, client.Apply, decrypt, compare.
func (r *remote) apply(b *base, t *opTrace, lane, i int) (time.Time, error) {
	k := i % len(r.vecs)
	h := t.begin("bfv.encrypt")
	ct := cham.EncryptVector(b.p, b.rngs[lane], b.sk, r.vecs[k])
	t.end(h)
	h = t.begin("client.apply")
	out, err := r.cl.Apply(r.h.ID, ct)
	t.end(h)
	if err != nil {
		return time.Now(), err
	}
	h = t.begin("bfv.decrypt")
	got := cham.DecryptResult(b.p, &cham.Result{Packed: out.Packed, M: int(out.M), N: int(out.N)}, b.sk)
	t.end(h)
	end := time.Now()
	return end, verify(t, got, r.want[k])
}

// ---- serve_open_loop --------------------------------------------------

// serveOpenLoop drives one chamserve-configured server over loopback TCP
// with scheduled arrivals at a fixed rate (see arrivalSchedule). The
// kernel share per request is the smallest of the four, so
// wire/client/server/runtime tax is a visible part of latency; requests
// that overlap share the cores, so latency rises long before throughput can.
type serveOpenLoop struct {
	base
	remote
	n, rows, cols int
	rate          float64
	node          *node
}

func (w *serveOpenLoop) info() workloadInfo {
	return workloadInfo{rowsPerOp: w.rows, sloMs: 150, callers: callers(), openRate: w.rate}
}

func (w *serveOpenLoop) setup() error {
	if err := w.keygen(w.n, w.rows, callers()); err != nil {
		return err
	}
	w.a = randMatrix(w.rng, w.p.T.Q, w.rows, w.cols)
	w.vecs = randMatrix(w.rng, w.p.T.Q, vectorPool, w.cols)
	w.want = w.products(w.a, w.vecs)
	// Exactly what cmd/chamserve builds with no flags.
	nd, err := startNode(server.Config{
		Params:          w.p,
		MaxBatch:        16,
		Linger:          2 * time.Millisecond,
		QueueDepth:      256,
		DefaultDeadline: 5 * time.Second,
	})
	if err != nil {
		return err
	}
	w.node = nd
	return w.install(&w.base, nd.addr)
}

func (w *serveOpenLoop) teardown() {
	w.close()
	if w.node != nil {
		w.node.stop()
		w.node = nil
	}
}

func (w *serveOpenLoop) op(t *opTrace, lane, i int) (time.Time, error) {
	return w.apply(&w.base, t, lane, i)
}

func (w *serveOpenLoop) probes(pl perLayer, budget time.Duration) error {
	k, err := kernelProbes(pl, w.kernelEnv(w.a, w.vecs[0], 1), budget)
	if err != nil {
		return err
	}
	if err := wireProbes(pl, w.p, w.h.ID, k.ct, k.res, budget); err != nil {
		return err
	}
	if err := runtimeProbe(pl, w.rows, w.cols, budget); err != nil {
		return err
	}
	rtt, err := timeReps(budget, func() error { _, err := w.cl.Apply(w.h.ID, k.ct); return err })
	if err != nil {
		return err
	}
	pl["client.rtt_unloaded_ms_p50"] = p50(rtt)
	pl["server.tax_ms_p50"] = p50(rtt) - pl["core.apply_ms_p50"]
	pl["server.loaded_wait_ms_p50"] = pl["client.rtt_loaded_ms_p50"] - p50(rtt)
	return nil
}

// ---- cluster_scatter --------------------------------------------------

// clusterScatter is client -> gateway -> coordinator -> 2 LazyTiles
// shards, all in-process on loopback: the only workload where
// scatter/gather, TileApply, hedging and the slowest-shard effect run.
type clusterScatter struct {
	base
	remote
	n, rows, cols int
	shards        int
	nodes         []*node
	co            *cluster.Coordinator
	gw            *cluster.Gateway
	gwDone        chan error
	tilesMax      int
}

func (w *clusterScatter) info() workloadInfo {
	return workloadInfo{rowsPerOp: w.rows, sloMs: 1000, callers: callers()}
}

func (w *clusterScatter) setup() error {
	if err := w.keygen(w.n, w.n, callers()); err != nil {
		return err
	}
	w.a = randMatrix(w.rng, w.p.T.Q, w.rows, w.cols)
	var addrs []string
	for s := 0; s < w.shards; s++ {
		// What cmd/chamcluster -spawn builds for each shard.
		nd, err := startNode(server.Config{Params: w.p, LazyTiles: true})
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, nd)
		addrs = append(addrs, nd.addr)
	}
	if err := w.balance(addrs); err != nil {
		return err
	}
	w.vecs = randMatrix(w.rng, w.p.T.Q, vectorPool, w.cols)
	w.want = w.products(w.a, w.vecs)
	co, err := cluster.New(cluster.Config{Params: w.p, Nodes: addrs, Replicas: 2, HedgeDelay: 50 * time.Millisecond})
	if err != nil {
		return err
	}
	w.co = co
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Coordinator: co})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.gw, w.gwDone = gw, make(chan error, 1)
	go func() { w.gwDone <- gw.Serve(ln) }()
	return w.install(&w.base, ln.Addr().String())
}

// balance nudges one matrix entry until the consistent-hash ring places
// the same number of tiles on every shard. Placement hashes the matrix
// content and the shards' (ephemeral) addresses, so left alone the split
// of four tiles over two shards is 2/2, 3/1 or 4/0 by chance, and the
// slowest shard would make runs of the same code disagree.
func (w *clusterScatter) balance(addrs []string) error {
	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		return err
	}
	tiles := (w.rows + w.n - 1) / w.n
	for try := 0; try < 1000; try++ {
		id, err := wire.MatrixID(w.a)
		if err != nil {
			return err
		}
		w.tilesMax = 0
		for _, list := range ring.Assign(id, tiles) {
			if len(list) > w.tilesMax {
				w.tilesMax = len(list)
			}
		}
		if w.tilesMax*w.shards == tiles {
			return nil
		}
		w.a[0][0] = (w.a[0][0] + 1) % w.p.T.Q
	}
	return fmt.Errorf("no balanced placement of %d tiles on %d shards found", tiles, w.shards)
}

func (w *clusterScatter) teardown() {
	w.close()
	if w.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.gw.Shutdown(ctx) // a drain that times out still closed every connection
		cancel()
		<-w.gwDone
		w.gw = nil
	}
	if w.co != nil {
		w.co.Close()
		w.co = nil
	}
	for _, nd := range w.nodes {
		nd.stop()
	}
	w.nodes = nil
}

func (w *clusterScatter) op(t *opTrace, lane, i int) (time.Time, error) {
	return w.apply(&w.base, t, lane, i)
}

func (w *clusterScatter) probes(pl perLayer, budget time.Duration) error {
	k, err := kernelProbes(pl, w.kernelEnv(w.a, w.vecs[0], 1), budget)
	if err != nil {
		return err
	}
	if err := wireProbes(pl, w.p, w.h.ID, k.ct, k.res, budget); err != nil {
		return err
	}
	if err := runtimeProbe(pl, w.n, w.cols, budget); err != nil {
		return err
	}
	// CPU per gathered op against CPU of the same product in-process:
	// above 1 is work the hedges and re-scatters duplicate.
	c0 := cpuSeconds()
	rtt, err := timeReps(budget, func() error { _, err := w.cl.Apply(w.h.ID, k.ct); return err })
	if err != nil {
		return err
	}
	clusterCPU := (cpuSeconds() - c0) / float64(len(rtt)+1)
	c0 = cpuSeconds()
	local, err := timeReps(budget, func() error { return k.pm.ApplyInto(k.res, k.ct) })
	if err != nil {
		return err
	}
	localCPU := (cpuSeconds() - c0) / float64(len(local)+1)
	pl["client.rtt_unloaded_ms_p50"] = p50(rtt)
	pl["cluster.rtt_unloaded_ms_p50"] = p50(rtt)
	pl["cluster.scatter_tax_ms_p50"] = p50(rtt) - pl["core.apply_ms_p50"]
	if localCPU > 0 {
		pl["cluster.work_amplification"] = clusterCPU / localCPU
	}
	pl["cluster.tiles_max_per_shard"] = float64(w.tilesMax)

	shard, err := client.Dial(client.Config{Addr: w.nodes[0].addr, Params: w.p})
	if err != nil {
		return err
	}
	defer shard.Close()
	tile, err := timeReps(budget, func() error { _, err := shard.TileApply(w.h.ID, []uint32{0}, k.ct); return err })
	if err != nil {
		return err
	}
	pl["cluster.tile_apply_ms_p50"] = p50(tile)
	return nil
}
