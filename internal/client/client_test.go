package client

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/server"
	"cham/internal/testutil"
	"cham/internal/wire"
)

// flakyProxy fronts a healthy server but slams the door on the first
// `drops` connections — the classic half-up load balancer. Connections
// after that are spliced through transparently.
func flakyProxy(tb testing.TB, backend string, drops int) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if n.Add(1) <= int64(drops) {
				c.Close()
				continue
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go splice(c, up)
		}
	}()
	return ln.Addr().String()
}

func splice(a, b net.Conn) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); io.Copy(a, b); a.Close() }()
	go func() { defer wg.Done(); io.Copy(b, a); b.Close() }()
	wg.Wait()
}

func testParams(tb testing.TB, n int) bfv.Params {
	tb.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func startServer(tb testing.TB, p bfv.Params) string {
	tb.Helper()
	s, err := server.New(server.Config{Params: p})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go s.Serve(ln)
	tb.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestRetryThroughFlakyListener dials through a proxy that kills the
// first three connections and asserts the backoff loop rides it out,
// sleeping the expected jittered schedule in between.
func TestRetryThroughFlakyListener(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	addr := flakyProxy(t, startServer(t, p), 3)

	var slept []time.Duration
	cl, err := Dial(Config{
		Addr:       addr,
		Params:     p,
		MaxRetries: 5,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
		Jitter:     func() float64 { return 0.5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cl.SetupKeys(keys)
	if err != nil {
		t.Fatalf("SetupKeys through flaky proxy: %v", err)
	}
	if hash != wire.KeyHash(p.R, keys) {
		t.Fatal("wrong key hash")
	}
	if len(slept) != 3 {
		t.Fatalf("expected 3 backoff sleeps (one per dropped conn), got %d: %v", len(slept), slept)
	}
	// Equal jitter with Jitter()=0.5: base*2^i/2 + base*2^i/4 = 3/4 of the
	// deterministic delay, doubling per attempt.
	for i, d := range slept {
		want := time.Duration(3) * (backoffBase << uint(i)) / 4
		if d != want {
			t.Errorf("sleep %d = %v, want %v", i, d, want)
		}
	}

	// The surviving connection is pooled and reused: the follow-up request
	// must not dial (and so cannot hit the proxy's drop counter again).
	dials0 := mDials.Value()
	A := testutil.Matrix(rng, 4, 32, p.T.Q)
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))
	if _, err := cl.Apply(handle.ID, ctV); err != nil {
		t.Fatal(err)
	}
	if d := mDials.Value() - dials0; d != 0 {
		t.Errorf("expected pooled connection reuse, saw %d fresh dials", d)
	}
}

// TestNoRetryOnPermanentError asserts a non-retryable typed rejection
// comes back immediately, without burning the backoff budget.
func TestNoRetryOnPermanentError(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	addr := startServer(t, p)

	sleeps := 0
	cl, err := Dial(Config{
		Addr:       addr,
		Params:     p,
		MaxRetries: 5,
		Sleep:      func(time.Duration) { sleeps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SetupKeys(keys); err != nil {
		t.Fatal(err)
	}
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))
	var bogus [32]byte
	_, err = cl.Apply(bogus, ctV)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeUnknownMatrix {
		t.Fatalf("expected unknown_matrix, got %v", err)
	}
	if sleeps != 0 {
		t.Fatalf("permanent error triggered %d retries", sleeps)
	}
}

// TestDeadExhaustsRetries points the client at nothing and asserts the
// retry budget is honored before the transport error surfaces.
func TestDeadExhaustsRetries(t *testing.T) {
	p := testParams(t, 32)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	sleeps := 0
	cl, err := Dial(Config{
		Addr:        addr,
		Params:      p,
		MaxRetries:  3,
		DialTimeout: 200 * time.Millisecond,
		Sleep:       func(time.Duration) { sleeps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("ping against a dead address succeeded")
	}
	if sleeps != 3 {
		t.Fatalf("expected 3 backoff sleeps, got %d", sleeps)
	}
}

// countingListener accepts connections and counts them; each connection
// gets answer, run on its own goroutine.
func countingListener(tb testing.TB, answer func(net.Conn)) (string, *atomic.Int64) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			go func() {
				defer c.Close()
				answer(c)
			}()
		}
	}()
	return ln.Addr().String(), &n
}

// TestOversizePayloadNeverSent: a payload no door would read fails in the
// client with a typed error before any dial, send or retry.
func TestOversizePayloadNeverSent(t *testing.T) {
	addr, accepted := countingListener(t, func(net.Conn) {})
	sleeps := 0
	cl, err := Dial(Config{Addr: addr, Params: testParams(t, 32), Sleep: func(time.Duration) { sleeps++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The client reads only the length, so the buffer's pages stay untouched.
	_, err = cl.RegisterMatrixEncoded(make([]byte, wire.DefaultMaxFrame+1))
	var fe *wire.FrameSizeError
	if !errors.As(err, &fe) || fe.Size != uint64(wire.DefaultMaxFrame)+1 {
		t.Fatalf("an oversize payload returned %v, want a FrameSizeError", err)
	}
	if n := accepted.Load(); n != 0 || sleeps != 0 {
		t.Fatalf("an oversize payload cost %d connections and %d retries, want none", n, sleeps)
	}
}

// TestVersionSkewNotRetried: a peer that answers in another frame revision
// fails the request with a typed VersionError on the first attempt; every
// retry would meet the same peer.
func TestVersionSkewNotRetried(t *testing.T) {
	addr, accepted := countingListener(t, func(c net.Conn) {
		_, seq, _, _, err := wire.ReadFrame(c)
		if err != nil {
			return
		}
		frame := wire.AppendFrame(nil, wire.MsgHelloOK, seq, wire.TraceHeader{}, nil)
		frame[4] = wire.FrameVersion + 1
		c.Write(frame)
	})
	sleeps := 0
	cl, err := Dial(Config{Addr: addr, Params: testParams(t, 32), MaxRetries: 3, Sleep: func(time.Duration) { sleeps++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Ping()
	var ve *wire.VersionError
	if !errors.As(err, &ve) || ve.Version != wire.FrameVersion+1 {
		t.Fatalf("a peer of revision %d gave %v, want a VersionError", wire.FrameVersion+1, err)
	}
	if n := accepted.Load(); n != 1 || sleeps != 0 {
		t.Fatalf("the request made %d connections and %d retries, want 1 and none", n, sleeps)
	}
}
