package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/ref"
	"cham/internal/rlwe"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/testutil"
	"cham/internal/wire"
)

func testParams(tb testing.TB, n int) bfv.Params {
	tb.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// node is one shard: a chamserve instance in lazy-tile mode with a kill
// switch for fault injection.
type node struct {
	srv  *server.Server
	addr string
	kill func() // hard stop: close listener and connections immediately
}

func startNode(tb testing.TB, p bfv.Params, mut func(*server.Config)) *node {
	tb.Helper()
	cfg := server.Config{Params: p, LazyTiles: true, Linger: time.Millisecond}
	if mut != nil {
		mut(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go s.Serve(ln)
	var once sync.Once
	kill := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			s.Shutdown(ctx)
		})
	}
	tb.Cleanup(kill)
	return &node{srv: s, addr: ln.Addr().String(), kill: kill}
}

// newCluster spins up n shard nodes plus a coordinator over them.
func newCluster(tb testing.TB, p bfv.Params, n int, mut func(*server.Config), cmut func(*Config)) (*Coordinator, []*node) {
	tb.Helper()
	nodes := make([]*node, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startNode(tb, p, mut)
		addrs[i] = nodes[i].addr
	}
	cfg := Config{
		Params:         p,
		Nodes:          addrs,
		HedgeDelay:     20 * time.Millisecond,
		DialTimeout:    2 * time.Second,
		RequestTimeout: 30 * time.Second,
	}
	if cmut != nil {
		cmut(&cfg)
	}
	co, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(co.Close)
	return co, nodes
}

func sameCiphertext(a, b *rlwe.Ciphertext) bool {
	if a.B.Levels() != b.B.Levels() || a.A.Levels() != b.A.Levels() {
		return false
	}
	for l := 0; l < a.B.Levels(); l++ {
		for i := range a.B.Coeffs[l] {
			if a.B.Coeffs[l][i] != b.B.Coeffs[l][i] {
				return false
			}
		}
	}
	for l := 0; l < a.A.Levels(); l++ {
		for i := range a.A.Coeffs[l] {
			if a.A.Coeffs[l][i] != b.A.Coeffs[l][i] {
				return false
			}
		}
	}
	return true
}

// checkResult asserts a gathered cluster result is bit-identical to the
// single-node in-process result and decrypts to the cleartext product.
func checkResult(tb testing.TB, p bfv.Params, got wire.Result, want *core.Result, A [][]uint64, v []uint64, sk *rlwe.SecretKey) {
	tb.Helper()
	if int(got.M) != want.M || int(got.N) != want.N {
		tb.Fatalf("result header %dx%d, want %dx%d", got.M, got.N, want.M, want.N)
	}
	if len(got.Packed) != len(want.Packed) {
		tb.Fatalf("result carries %d tiles, want %d", len(got.Packed), len(want.Packed))
	}
	for i := range got.Packed {
		if !sameCiphertext(got.Packed[i], want.Packed[i]) {
			tb.Fatalf("tile %d not bit-identical to the single-node result", i)
		}
	}
	dec := core.DecryptResult(p, &core.Result{M: int(got.M), N: int(got.N), Packed: got.Packed}, sk)
	plain := core.PlainMatVec(p, A, v)
	for i := range plain {
		if dec[i] != plain[i] {
			tb.Fatalf("row %d decrypts to %d, want %d", i, dec[i], plain[i])
		}
	}
}

// TestClusterEndToEnd is the tentpole acceptance test: 1-, 2- and 4-shard
// loopback clusters must gather results bit-identical to a single
// in-process evaluator — which is itself cross-checked against the
// independent reference pipeline — at both serial and parallel node
// settings, for a one-tile-short and a many-tile matrix.
func TestClusterEndToEnd(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := ref.Keys(p, keys)

	workerSet := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerSet = append(workerSet, n)
	}

	for _, rows := range []int{256, 4096} {
		A := testutil.Matrix(rng, rows, 32, p.T.Q)
		pm, err := ev.Prepare(A)
		if err != nil {
			t.Fatal(err)
		}
		v := testutil.Vector(rng, 32, p.T.Q)
		ctV := core.EncryptVector(p, rng, sk, v)
		want, err := pm.Apply(ctV)
		if err != nil {
			t.Fatal(err)
		}
		// Anchor the single-node result against the independent reference
		// before using it as the cluster's ground truth.
		tr, err := ref.HMVP(p, A, ctV, refKeys)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.MatchesResult(p, want.Packed); err != nil {
			t.Fatalf("single-node result disagrees with reference: %v", err)
		}

		for _, shards := range []int{1, 2, 4} {
			for _, workers := range workerSet {
				t.Run(fmt.Sprintf("rows=%d/shards=%d/workers=%d", rows, shards, workers), func(t *testing.T) {
					co, _ := newCluster(t, p, shards, func(c *server.Config) {
						c.Workers = workers
						c.EvalWorkers = workers
					}, nil)
					if _, err := co.SetupKeys(keys); err != nil {
						t.Fatal(err)
					}
					handle, err := co.RegisterMatrix(A)
					if err != nil {
						t.Fatal(err)
					}
					if handle.Tiles != uint32((rows+p.R.N-1)/p.R.N) {
						t.Fatalf("handle reports %d tiles for %d rows", handle.Tiles, rows)
					}
					got, err := co.Apply(handle.ID, ctV)
					if err != nil {
						t.Fatal(err)
					}
					checkResult(t, p, got, want, A, v, sk)
				})
			}
		}
	}
}

// TestClusterConcurrentApplies drives parallel applies through a 2-shard
// cluster — every gathered result must stay bit-identical while the
// shards batch and interleave requests.
func TestClusterConcurrentApplies(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 96, 32, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	co, _ := newCluster(t, p, 2, nil, nil)
	if _, err := co.SetupKeys(keys); err != nil {
		t.Fatal(err)
	}
	handle, err := co.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(testutil.Seed(t) + int64(c)))
			v := testutil.Vector(grng, 32, p.T.Q)
			ctV := core.EncryptVector(p, grng, sk, v)
			want, err := pm.Apply(ctV)
			if err != nil {
				errs <- err
				return
			}
			got, err := co.Apply(handle.ID, ctV)
			if err != nil {
				errs <- fmt.Errorf("caller %d: %v", c, err)
				return
			}
			for i := range got.Packed {
				if !sameCiphertext(got.Packed[i], want.Packed[i]) {
					errs <- fmt.Errorf("caller %d: tile %d differs", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClusterFaultInjection kills shards under load: one dead shard must
// be absorbed by hedged retries and the re-scatter pass (bit-identical
// results throughout), losing every shard must surface the typed
// degraded error, and a shard whose card hangs must recover through the
// runtime's RAS machinery without the cluster noticing.
func TestClusterFaultInjection(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 512, 32, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, 32, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	want, err := pm.Apply(ctV)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("shard killed mid-batch", func(t *testing.T) {
		co, nodes := newCluster(t, p, 3, nil, func(c *Config) {
			c.HedgeDelay = 5 * time.Millisecond
		})
		if _, err := co.SetupKeys(keys); err != nil {
			t.Fatal(err)
		}
		handle, err := co.RegisterMatrix(A)
		if err != nil {
			t.Fatal(err)
		}
		// One clean pass so every node has seen traffic, then a volley with
		// a shard dying underneath it.
		got, err := co.Apply(handle.ID, ctV)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, p, got, want, A, v, sk)

		const volley = 6
		var wg sync.WaitGroup
		errs := make(chan error, volley)
		for i := 0; i < volley; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := co.Apply(handle.ID, ctV)
				if err != nil {
					errs <- fmt.Errorf("apply %d during shard death: %v", i, err)
					return
				}
				for ti := range got.Packed {
					if !sameCiphertext(got.Packed[ti], want.Packed[ti]) {
						errs <- fmt.Errorf("apply %d: tile %d differs after failover", i, ti)
						return
					}
				}
			}(i)
		}
		nodes[1].kill()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}

		// With the shard still dead, fresh applies must keep succeeding —
		// the survivors own every tile now.
		got, err = co.Apply(handle.ID, ctV)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, p, got, want, A, v, sk)
	})

	t.Run("quorum loss is a typed degraded error", func(t *testing.T) {
		co, nodes := newCluster(t, p, 2, nil, func(c *Config) {
			c.HedgeDelay = 2 * time.Millisecond
			c.DialTimeout = 200 * time.Millisecond
		})
		if _, err := co.SetupKeys(keys); err != nil {
			t.Fatal(err)
		}
		handle, err := co.RegisterMatrix(A)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			n.kill()
		}
		_, err = co.Apply(handle.ID, ctV)
		var de *DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("apply with every shard dead returned %v, want *DegradedError", err)
		}
		if len(de.Missing) == 0 || de.Nodes != 2 {
			t.Fatalf("degraded error reports %d missing tiles across %d nodes", len(de.Missing), de.Nodes)
		}
		we := de.Wire()
		if we.Code != wire.CodeDegraded {
			t.Fatalf("degraded error maps to wire code %d, want CodeDegraded", we.Code)
		}
		if !we.Retryable() {
			t.Fatal("CodeDegraded must be retryable — a returning node clears it")
		}
	})

	t.Run("card hang recovers via RAS", func(t *testing.T) {
		// Shard 0's card hangs after its first job; the runtime's watchdog
		// must reset and replay without the coordinator ever failing over.
		hangCard, err := rt.New(rt.NewDevice(1, 100*time.Microsecond, rt.FaultPlan{HangAfterJobs: 1}))
		if err != nil {
			t.Fatal(err)
		}
		hangCard.JobTimeout = 20 * time.Millisecond
		first := true
		co, _ := newCluster(t, p, 2, func(c *server.Config) {
			if first {
				c.Card = hangCard
				first = false
			}
		}, nil)
		if _, err := co.SetupKeys(keys); err != nil {
			t.Fatal(err)
		}
		handle, err := co.RegisterMatrix(A)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := co.Apply(handle.ID, ctV)
			if err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
			checkResult(t, p, got, want, A, v, sk)
		}
		if hangCard.Resets() == 0 {
			t.Fatal("the hung card was never reset — the RAS path did not run")
		}
	})
}

// TestClusterJoin grows a 1-shard cluster to 2: the joiner receives the
// replicated registry and warmed tiles, and results stay bit-identical
// across the membership change.
func TestClusterJoin(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 256, 32, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, 32, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	want, err := pm.Apply(ctV)
	if err != nil {
		t.Fatal(err)
	}

	co, _ := newCluster(t, p, 1, nil, nil)
	if _, err := co.SetupKeys(keys); err != nil {
		t.Fatal(err)
	}
	handle, err := co.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.Apply(handle.ID, ctV)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, p, got, want, A, v, sk)

	joiner := startNode(t, p, nil)
	if err := co.Join(joiner.addr); err != nil {
		t.Fatal(err)
	}
	if err := co.Join(joiner.addr); err == nil {
		t.Fatal("joining the same node twice was accepted")
	}
	if got := len(co.Nodes()); got != 2 {
		t.Fatalf("cluster has %d nodes after join, want 2", got)
	}
	// The joiner was warmed: the tiles the new ring hands it are already
	// prepared, so the first post-join apply pays no preparation.
	if joiner.srv.Matrices() != 1 {
		t.Fatalf("joiner holds %d matrices after warm-up, want 1", joiner.srv.Matrices())
	}
	got, err = co.Apply(handle.ID, ctV)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, p, got, want, A, v, sk)
}

// TestGatewayWireCompat runs an unmodified wire client against the
// cluster gateway: handshake, key setup, registration, apply and drain
// all behave like one big chamserve.
func TestGatewayWireCompat(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 96, 32, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, 32, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	want, err := pm.Apply(ctV)
	if err != nil {
		t.Fatal(err)
	}

	co, _ := newCluster(t, p, 2, nil, nil)
	gw, err := NewGateway(GatewayConfig{Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- gw.Serve(ln) }()

	cl, err := client.Dial(client.Config{Addr: ln.Addr().String(), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	hello, err := cl.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Engines != 2 {
		t.Fatalf("gateway advertises %d engines, want the 2 shards", hello.Engines)
	}
	hash, err := cl.SetupKeys(keys)
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.KeyHash(p.R, keys); hash != want {
		t.Fatalf("key hash %x, want %x", hash[:8], want[:8])
	}
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Apply(handle.ID, ctV)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, p, got, want, A, v, sk)
	if _, err := cl.Apply([32]byte{0xde, 0xad}, ctV); err == nil {
		t.Fatal("apply of an unregistered matrix succeeded")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("gateway still accepting after drain")
	}
}

// counter reads a process-global metric by name (the server package's
// handles are unexported; the registry hands back the same series).
func counter(name string, labels ...string) uint64 {
	return obs.GetCounter(name, "", labels...).Value()
}

// TestClusterStragglerHedge slows one shard's card without failing it: the
// leg it owns outlasts the hedge floor, the replica answers first, and the
// loser is cancelled — its connection closed rather than pooled, its
// request dropped from the slow shard's queue instead of served, its span
// annotated rather than failed. The gathered result stays bit-identical
// and the coordinator keeps working through the same clients afterwards.
func TestClusterStragglerHedge(t *testing.T) {
	trace.Reset()
	trace.SetSampleRate(1) // before anything dials, so the legs carry spans
	defer trace.SetSampleRate(0)
	defer trace.Reset()

	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 1024, 32, p.T.Q) // 32 tiles: both shards own some
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, 32, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	want, err := pm.Apply(ctV)
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0's card takes 1 ms per row: a few hundred ms per leg against a
	// 20 ms floor, slow but never failing (the watchdog is moved out of the
	// way so the RAS path stays out of this test).
	dev := rt.NewDevice(1, time.Millisecond, rt.FaultPlan{})
	dev.SetRowLatency(0, time.Millisecond)
	slowCard, err := rt.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	slowCard.JobTimeout = 30 * time.Second
	first := true
	co, nodes := newCluster(t, p, 2, func(c *server.Config) {
		if first {
			c.Card = slowCard
			first = false
		}
	}, nil)
	if _, err := co.SetupKeys(keys); err != nil {
		t.Fatal(err)
	}
	handle, err := co.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := co.snapshot()
	if owned := len(ring.Assign(handle.ID, int(handle.Tiles))[0]); owned == 0 {
		t.Fatal("the ring gave the slow shard no tiles; nothing would straggle")
	}

	hedges0, cancels0 := mHedges.Value(), mHedgeCancels.Value()
	shardErr0 := mShardErr.Value()
	abandoned0 := counter("cham_server_abandoned_total")

	tc, sp := trace.Root("test-client", "apply")
	got, err := co.ApplyCtx(trace.NewContext(context.Background(), tc), handle.ID, ctV)
	sp.EndErr(err)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, p, got, want, A, v, sk)
	if mHedges.Value() == hedges0 {
		t.Fatal("no hedge fired against a shard hundreds of ms behind a 20ms floor")
	}
	if thr := mHedgeThreshold.Value(); thr != 0.020 {
		t.Errorf("cham_cluster_hedge_threshold_seconds reads %v on a fleet with no history, want the 0.020 floor", thr)
	}

	// The next apply goes through the same node clients. Had the cancelled
	// connection been pooled with the slow shard's reply still unread, this
	// leg would fail with a stream desync and count as a shard error.
	got, err = co.Apply(handle.ID, ctV)
	if err != nil {
		t.Fatalf("apply after a cancelled hedge: %v", err)
	}
	checkResult(t, p, got, want, A, v, sk)

	// Draining the slow shard retires everything it had admitted, so its
	// counters are final afterwards.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := nodes[0].srv.Shutdown(ctx); err != nil {
		t.Fatalf("draining the slow shard: %v", err)
	}
	if d := mHedgeCancels.Value() - cancels0; d == 0 {
		t.Error("cham_cluster_hedge_cancels_total did not move: the losing attempt was left to finish")
	}
	if d := mShardErr.Value() - shardErr0; d != 0 {
		t.Errorf("%d shard errors counted; a cancelled attempt is not a shard failure", d)
	}
	if d := counter("cham_server_abandoned_total") - abandoned0; d == 0 {
		t.Error("cham_server_abandoned_total did not move: the slow shard served a request nobody was waiting for")
	}

	// The loser's span says what happened to it.
	cancelled := false
	for _, r := range trace.TraceRecords(tc.Trace) {
		if r.Service == "coordinator" && strings.HasPrefix(r.Name, "shard:") && r.Note == "cancelled" {
			cancelled = true
		}
	}
	if !cancelled {
		t.Error("no shard:N span of the hedged apply is annotated cancelled")
	}
}
