package server

// Version-skew interop: the traced frame format is negotiated, so a
// traced client against a pre-tracing server (Config.DisableTrace
// byte-for-byte reproduces one) must fall back to v1 frames and still
// get correct results, and a pre-tracing client speaking raw v1 frames
// against a traced server must be served identically with zero spans
// recorded.

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

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
	_, addr := testServer(t, Config{Params: p, DisableTrace: true, Linger: time.Millisecond})
	cl := testClient(t, addr, p, nil)
	keys := setupKeys(t, cl, p, rng, sk)

	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 24, 32, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
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
