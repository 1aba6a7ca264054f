package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/rlwe"
	rt "cham/internal/runtime"
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

// testServer starts a server on a loopback listener and tears it down
// with the test.
func testServer(tb testing.TB, cfg Config) (*Server, string) {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			tb.Errorf("serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

func testClient(tb testing.TB, addr string, p bfv.Params, mut func(*client.Config)) *client.Client {
	tb.Helper()
	cfg := client.Config{Addr: addr, Params: p, MaxConns: 16, Backoff: time.Millisecond}
	if mut != nil {
		mut(&cfg)
	}
	cl, err := client.Dial(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

// setupKeys generates a client-side key set and installs it.
func setupKeys(tb testing.TB, cl *client.Client, p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey) *lwe.PackingKeys {
	tb.Helper()
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		tb.Fatal(err)
	}
	hash, err := cl.SetupKeys(keys)
	if err != nil {
		tb.Fatal(err)
	}
	if want := wire.KeyHash(p.R, keys); hash != want {
		tb.Fatalf("key hash mismatch: got %x want %x", hash[:8], want[:8])
	}
	return keys
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

// TestLoopbackEndToEnd is the acceptance loop: concurrent clients stream
// encrypted vectors over TCP and every packed result must be bit-identical
// to the in-process ApplyInto with the same keys, at both serial and
// fully parallel evaluator settings, and decrypt to the cleartext product.
func TestLoopbackEndToEnd(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	const clients = 8

	for _, workers := range []int{1, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("evalWorkers=%d", workers), func(t *testing.T) {
			_, addr := testServer(t, Config{Params: p, EvalWorkers: workers, MaxBatch: 4, Linger: time.Millisecond})
			cl := testClient(t, addr, p, nil)
			keys := setupKeys(t, cl, p, rng, sk)

			// In-process reference evaluator over the very same key set.
			ev, err := core.NewEvaluatorFromKeys(p, keys)
			if err != nil {
				t.Fatal(err)
			}
			ev.Workers = workers
			A := testutil.Matrix(rng, 24, 32, p.T.Q)
			pm, err := ev.Prepare(A)
			if err != nil {
				t.Fatal(err)
			}
			handle, err := cl.RegisterMatrix(A)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := wire.MatrixID(A); handle.ID != want {
				t.Fatalf("handle ID %x, want content hash %x", handle.ID[:8], want[:8])
			}
			if handle.Rows != 24 || handle.Cols != 32 || handle.Chunks != 1 || handle.Tiles != 1 {
				t.Fatalf("unexpected handle geometry %+v", handle)
			}

			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					grng := rand.New(rand.NewSource(testutil.Seed(t) + int64(c)))
					for iter := 0; iter < 2; iter++ {
						v := testutil.Vector(grng, 32, p.T.Q)
						ctV := core.EncryptVector(p, grng, sk, v)
						got, err := cl.Apply(handle.ID, ctV)
						if err != nil {
							errs <- fmt.Errorf("client %d: %v", c, err)
							return
						}
						want, err := pm.Apply(ctV)
						if err != nil {
							errs <- err
							return
						}
						if len(got.Packed) != len(want.Packed) {
							errs <- fmt.Errorf("client %d: %d tiles, want %d", c, len(got.Packed), len(want.Packed))
							return
						}
						for i := range got.Packed {
							if !sameCiphertext(got.Packed[i], want.Packed[i]) {
								errs <- fmt.Errorf("client %d: tile %d not bit-identical to in-process apply", c, i)
								return
							}
						}
						dec := core.DecryptResult(p, &core.Result{M: int(got.M), N: int(got.N), Packed: got.Packed}, sk)
						plain := core.PlainMatVec(p, A, v)
						for i := range plain {
							if dec[i] != plain[i] {
								errs <- fmt.Errorf("client %d: row %d = %d, want %d", c, i, dec[i], plain[i])
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestBatchCoalescing drives concurrent applies through a single worker
// and asserts the dispatcher actually merged them: fewer batches than
// requests, with every live request accounted for.
func TestBatchCoalescing(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	_, addr := testServer(t, Config{
		Params: p, Workers: 1, MaxBatch: 8, Linger: 20 * time.Millisecond, QueueDepth: 64,
	})
	cl := testClient(t, addr, p, nil)
	setupKeys(t, cl, p, rng, sk)
	A := testutil.Matrix(rng, 8, 32, p.T.Q)
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}

	batches0, reqs0 := mBatchSize.Count(), mBatchSize.Sum()
	const concurrent = 16
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for c := 0; c < concurrent; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(testutil.Seed(t) + 100 + int64(c)))
			ctV := core.EncryptVector(p, grng, sk, testutil.Vector(grng, 32, p.T.Q))
			if _, err := cl.Apply(handle.ID, ctV); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	batches := mBatchSize.Count() - batches0
	served := mBatchSize.Sum() - reqs0
	if served != concurrent {
		t.Fatalf("batch-size histogram accounts for %v requests, want %d", served, concurrent)
	}
	if batches >= concurrent {
		t.Fatalf("%d batches for %d requests: no coalescing happened", batches, concurrent)
	}
	t.Logf("served %v requests in %d batches", served, batches)
}

// TestOverloadTyped saturates a deliberately tiny server and asserts the
// admission controller answers with the typed overload rejection while
// still serving some requests; a retrying client then rides it out.
func TestOverloadTyped(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	card, err := rt.New(rt.NewDevice(1, 20*time.Millisecond, rt.FaultPlan{}))
	if err != nil {
		t.Fatal(err)
	}
	card.JobTimeout = time.Second
	_, addr := testServer(t, Config{
		Params: p, Workers: 1, MaxBatch: 1, QueueDepth: 1, Card: card,
	})
	cl := testClient(t, addr, p, func(c *client.Config) { c.MaxRetries = -1 }) // no retries
	setupKeys(t, cl, p, rng, sk)
	A := testutil.Matrix(rng, 8, 32, p.T.Q)
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}

	const concurrent = 12
	var wg sync.WaitGroup
	results := make(chan error, concurrent)
	for c := 0; c < concurrent; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(testutil.Seed(t) + 200 + int64(c)))
			ctV := core.EncryptVector(p, grng, sk, testutil.Vector(grng, 32, p.T.Q))
			_, err := cl.Apply(handle.ID, ctV)
			results <- err
		}(c)
	}
	wg.Wait()
	close(results)
	var ok, overloaded, other int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, wire.ErrOverloaded):
			overloaded++
		default:
			other++
			t.Errorf("unexpected error class: %v", err)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under saturation")
	}
	if overloaded == 0 {
		t.Error("no request was rejected with the typed overload error")
	}
	t.Logf("ok=%d overloaded=%d other=%d", ok, overloaded, other)

	// With retries enabled the same pressure resolves to success.
	rcl := testClient(t, addr, p, func(c *client.Config) {
		c.MaxRetries = 20
		c.Backoff = 2 * time.Millisecond
	})
	grng := rand.New(rand.NewSource(testutil.Seed(t) + 999))
	ctV := core.EncryptVector(p, grng, sk, testutil.Vector(grng, 32, p.T.Q))
	if _, err := rcl.Apply(handle.ID, ctV); err != nil {
		t.Fatalf("retrying client did not recover from overload: %v", err)
	}
}

// TestDeadlineExpiredInQueue forces every request to miss its budget and
// asserts the typed deadline rejection (not a hang, not a generic error).
func TestDeadlineExpiredInQueue(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	_, addr := testServer(t, Config{Params: p, DefaultDeadline: time.Nanosecond, MaxBatch: 1})
	cl := testClient(t, addr, p, func(c *client.Config) { c.MaxRetries = -1 })
	setupKeys(t, cl, p, rng, sk)
	A := testutil.Matrix(rng, 4, 32, p.T.Q)
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))
	_, err = cl.Apply(handle.ID, ctV)
	if !errors.Is(err, &wire.Error{Code: wire.CodeDeadline}) {
		t.Fatalf("expected typed deadline error, got %v", err)
	}
}

// TestKeyLifecycle covers the one-key-set-per-server contract: required
// before registration, idempotent re-install, conflicting set rejected.
func TestKeyLifecycle(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	_, addr := testServer(t, Config{Params: p})
	cl := testClient(t, addr, p, func(c *client.Config) { c.MaxRetries = -1 })

	A := testutil.Matrix(rng, 4, 32, p.T.Q)
	_, err := cl.RegisterMatrix(A)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeKeysRequired {
		t.Fatalf("register before keys: expected keys_required, got %v", err)
	}

	keys := setupKeys(t, cl, p, rng, sk)
	h1, err := cl.SetupKeys(keys) // idempotent re-install
	if err != nil {
		t.Fatalf("idempotent SetupKeys failed: %v", err)
	}
	if h1 != wire.KeyHash(p.R, keys) {
		t.Fatal("idempotent SetupKeys returned a different hash")
	}

	sk2 := p.KeyGen(rng)
	keys2, err := lwe.GenPackingKeys(p, rng, sk2, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.SetupKeys(keys2)
	if !errors.As(err, &we) || we.Code != wire.CodeKeysConflict {
		t.Fatalf("conflicting SetupKeys: expected keys_conflict, got %v", err)
	}
}

// TestUnknownMatrix asserts an apply against an unregistered hash fails
// with the typed lookup error.
func TestUnknownMatrix(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	_, addr := testServer(t, Config{Params: p})
	cl := testClient(t, addr, p, func(c *client.Config) { c.MaxRetries = -1 })
	setupKeys(t, cl, p, rng, sk)
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))
	var bogus [32]byte
	bogus[0] = 0xEE
	_, err := cl.Apply(bogus, ctV)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeUnknownMatrix {
		t.Fatalf("expected unknown_matrix, got %v", err)
	}
}

// TestShutdownWhileBusy starts a burst of applies and shuts down
// mid-flight: every admitted request must still get an answer and the
// server must come down without leaking workers.
func TestShutdownWhileBusy(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	s, err := New(Config{Params: p, Workers: 2, MaxBatch: 4, Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	cl := testClient(t, ln.Addr().String(), p, func(c *client.Config) { c.MaxRetries = -1 })
	setupKeys(t, cl, p, rng, sk)
	A := testutil.Matrix(rng, 8, 32, p.T.Q)
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 8
	var wg sync.WaitGroup
	answered := make(chan bool, inflight)
	for c := 0; c < inflight; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(testutil.Seed(t) + 300 + int64(c)))
			ctV := core.EncryptVector(p, grng, sk, testutil.Vector(grng, 32, p.T.Q))
			_, err := cl.Apply(handle.ID, ctV)
			// Success, typed draining, and torn connection are all legitimate
			// outcomes mid-shutdown; a hang is not (the WaitGroup catches it).
			answered <- err == nil
		}(c)
	}
	time.Sleep(time.Millisecond) // let some requests reach the queue
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	close(answered)
	n := 0
	for range answered {
		n++
	}
	if n != inflight {
		t.Fatalf("%d of %d requests answered", n, inflight)
	}
}

// TestAbandonedRequestsDropped: a caller that cancels (the losing half of a
// hedged scatter leg) closes its connection, and every request that
// connection still has admitted here is retired without an engine job or
// a kernel apply — one was already on the card when the hang-up arrived
// and is dropped before its serve, two were still queued and are dropped
// at batch pickup. The client must not pool a cancelled connection: its
// next request on the same Client succeeds with the right answer.
func TestAbandonedRequestsDropped(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	card, err := rt.New(rt.NewDevice(1, 200*time.Millisecond, rt.FaultPlan{}))
	if err != nil {
		t.Fatal(err)
	}
	card.JobTimeout = 10 * time.Second
	_, addr := testServer(t, Config{Params: p, Workers: 1, MaxBatch: 1, Card: card})
	cl := testClient(t, addr, p, func(c *client.Config) { c.MaxRetries = -1 })
	keys := setupKeys(t, cl, p, rng, sk)
	A := testutil.Matrix(rng, 64, 32, p.T.Q)
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))

	abandoned0, applies0 := mAbandoned.Value(), mApplies.Value()
	received0 := mRequests[wire.MsgTileApply].Value()
	const cancelled = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, cancelled)
	for i := 0; i < cancelled; i++ {
		go func() {
			_, err := cl.TileApplyCtx(ctx, handle.ID, []uint32{0, 1}, ctV)
			errs <- err
		}()
	}
	// Admission follows the frame count on the same read goroutine, before
	// that goroutine can notice a hang-up, so three counted frames are three
	// admitted requests: one on the card for 200 ms, two queued behind it.
	for deadline := time.Now().Add(10 * time.Second); mRequests[wire.MsgTileApply].Value() < received0+cancelled; {
		if time.Now().After(deadline) {
			t.Fatal("the shard never received the three tile applies")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	for i := 0; i < cancelled; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled tile apply returned %v, want context.Canceled", err)
		}
	}

	// The same Client, after three cancellations: a pooled connection with
	// an unread reply on it would fail this with a sequence mismatch.
	got, err := cl.TileApply(handle.ID, []uint32{0, 1}, ctV)
	if err != nil {
		t.Fatalf("tile apply after cancellations: %v", err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pm.Apply(ctV)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Packed {
		if !sameCiphertext(got.Packed[i], want.Packed[i]) {
			t.Fatalf("tile %d after cancellations differs from the in-process apply", i)
		}
	}

	// That reply came back through the one worker, so the three cancelled
	// requests ahead of it have all been retired by now.
	if d := mAbandoned.Value() - abandoned0; d != cancelled {
		t.Errorf("cham_server_abandoned_total moved by %d, want %d", d, cancelled)
	}
	if d := mApplies.Value() - applies0; d != 1 {
		t.Errorf("cham_server_applies_total moved by %d, want 1 (only the live request is served)", d)
	}
}
