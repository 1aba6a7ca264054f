package server

// Version-skew interop: the traced frame format is negotiated, so a
// traced client against a pre-tracing server (v1Door stands one up) must
// fall back to v1 frames and still get correct results, and a
// pre-tracing client speaking raw v1 frames against a traced server must
// be served identically with zero spans recorded.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"net"
	"sync"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs/trace"
	"cham/internal/testutil"
	"cham/internal/wire"
)

// TestTraceSkewTracedClientOldServer: the client probes with
// MsgTraceHello, the old server rejects the unknown message type, and
// the client keeps the connection on v1 — applies succeed and only
// client-side spans are recorded.
func TestTraceSkewTracedClientOldServer(t *testing.T) {
	trace.Reset()
	trace.SetSampleRate(1)
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
	A := testutil.Matrix(rng, 24, 32, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	cl := testClient(t, v1Door(t, p, A, pm), p, nil)
	if hash, err := cl.SetupKeys(keys); err != nil || hash != wire.KeyHash(p.R, keys) {
		t.Fatalf("setup keys: hash %x, err %v", hash[:8], err)
	}
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, 32, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)

	tc, sp := trace.Root("client-edge", "apply")
	got, err := cl.ApplyCtx(trace.NewContext(context.Background(), tc), handle.ID, ctV)
	sp.EndErr(err)
	if err != nil {
		t.Fatalf("traced apply against an untraced server failed: %v", err)
	}
	want, err := pm.Apply(ctV)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Packed {
		if !sameCiphertext(got.Packed[i], want.Packed[i]) {
			t.Fatalf("tile %d not bit-identical to in-process apply", i)
		}
	}

	recs := trace.TraceRecords(tc.Trace)
	if len(recs) == 0 {
		t.Fatal("client recorded no spans for its own sampled request")
	}
	for _, r := range recs {
		switch r.Service {
		case "client-edge", "client":
			// expected: the edge root and the send span
		default:
			t.Errorf("old server leaked a %s/%s span into the trace", r.Service, r.Name)
		}
	}
}

// TestTraceSkewOldClientTracedServer: a pre-tracing client (raw v1
// frames, no MsgTraceHello probe) against a trace-enabled server. The
// server must serve it exactly as before and record nothing — the
// sampler only acts on requests that arrive with a sampled header or
// hit a rooting edge (the gateway), neither of which applies here.
func TestTraceSkewOldClientTracedServer(t *testing.T) {
	trace.Reset()
	trace.SetSampleRate(1)
	defer trace.SetSampleRate(0)
	defer trace.Reset()

	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	_, addr := testServer(t, Config{Params: p, Linger: time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var seq uint16
	roundTrip := func(mt, want wire.MsgType, payload []byte) []byte {
		t.Helper()
		seq++
		if err := wire.WriteFrame(conn, mt, seq, payload); err != nil {
			t.Fatal(err)
		}
		rt, rseq, rp, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if rseq != seq {
			t.Fatalf("response seq %d, want %d", rseq, seq)
		}
		if rt == wire.MsgError {
			we, _ := wire.DecodeError(rp)
			t.Fatalf("server rejected %v: %v", mt, we)
		}
		if rt != want {
			t.Fatalf("response type %v, want %v", rt, want)
		}
		return rp
	}

	roundTrip(wire.MsgHello, wire.MsgHelloOK, wire.HelloFor(p).Encode())
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(wire.MsgSetupKeys, wire.MsgSetupKeysOK, wire.EncodeSetupKeys(p.R, keys))
	A := testutil.Matrix(rng, 24, 32, p.T.Q)
	mreq, err := wire.EncodeRegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.DecodeMatrixHandle(roundTrip(wire.MsgRegisterMatrix, wire.MsgMatrixHandle, mreq))
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, 32, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	resp := roundTrip(wire.MsgApply, wire.MsgResult, wire.EncodeApply(p.R, wire.Apply{
		ID: h.ID, DeadlineMicros: uint64(10 * time.Second / time.Microsecond), Vector: ctV,
	}))
	got, err := wire.DecodeResult(p.R, resp)
	if err != nil {
		t.Fatal(err)
	}
	dec := core.DecryptResult(p, &core.Result{M: int(got.M), N: int(got.N), Packed: got.Packed}, sk)
	plain := core.PlainMatVec(p, A, v)
	for i := range plain {
		if dec[i] != plain[i] {
			t.Fatalf("row %d decrypts to %d, want %d", i, dec[i], plain[i])
		}
	}
	if recs := trace.Records(); len(recs) != 0 {
		t.Fatalf("untraced v1 request left %d spans in the ring: %+v", len(recs), recs)
	}
}

// v1Door stands in for a pre-tracing server: a strict revision-1 frame
// loop (wire.ReadFrame fails on a traced frame, which ends the
// connection) that knows the handshake, the key install and the one
// matrix A, and answers its applies from pm in process. MsgTraceHello is
// a message type it does not know, rejected the way any build rejects
// one. It returns the door's address and closes with the test.
func v1Door(t *testing.T, p bfv.Params, A [][]uint64, pm *core.PreparedMatrix) string {
	t.Helper()
	id, err := wire.MatrixID(A)
	if err != nil {
		t.Fatal(err)
	}
	handle := wire.MatrixHandle{ID: id, Rows: uint32(pm.Rows()), Cols: uint32(pm.Cols()),
		Chunks: uint32(pm.Chunks()), Tiles: uint32(pm.Tiles())}
	answer := func(mt wire.MsgType, payload []byte) (wire.MsgType, []byte) {
		switch mt {
		case wire.MsgPing:
			return wire.MsgPong, payload
		case wire.MsgHello:
			return wire.MsgHelloOK, wire.HelloOK{Hello: wire.HelloFor(p), Engines: 1, MaxBatch: 1}.Encode()
		case wire.MsgSetupKeys:
			return wire.MsgSetupKeysOK, wire.SetupKeysOK{KeyHash: sha256.Sum256(payload)}.Encode()
		case wire.MsgRegisterMatrix:
			return wire.MsgMatrixHandle, handle.Encode()
		case wire.MsgApply:
			a, err := wire.DecodeApply(p.R, payload)
			var res *core.Result
			if err == nil {
				res, err = pm.Apply(a.Vector)
			}
			if err != nil {
				return wire.MsgError, wire.Errf(wire.CodeBadRequest, "apply: %v", err).Encode()
			}
			return wire.MsgResult, wire.EncodeResult(p.R, wire.Result{M: uint32(res.M), N: uint32(res.N), Packed: res.Packed})
		}
		return wire.MsgError, wire.Errf(wire.CodeBadRequest, "unexpected message type %d", mt).Encode()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
		wg     sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				mu.Unlock()
				nc.Close()
				return
			}
			conns = append(conns, nc)
			wg.Add(1)
			mu.Unlock()
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					mt, seq, payload, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
					if err != nil {
						return
					}
					rt, rp := answer(mt, payload)
					if wire.WriteFrame(nc, rt, seq, rp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}
