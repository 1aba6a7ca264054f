package chamnp

import (
	"errors"
	"math/rand"
	"net"
	"testing"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/ref"
	"cham/internal/rlwe"
	"cham/internal/server"
	"cham/internal/testutil"
)

// TestRemoteBackendMatchesLocal: a MatMul routed through a loopback
// chamserve server is BIT-identical to the in-process path when both
// run on the same packing keys — same Backend interface, same packed
// ciphertexts — and both decrypt to the exact reference product.
func TestRemoteBackendMatchesLocal(t *testing.T) {
	p, rng, sk, _ := setup(t, 64)
	cl, keys := loopback(t, p, rng, sk)
	// The local evaluator runs on the SAME keys the server holds, so the
	// two paths are byte-for-byte the same computation.
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}

	W := testutil.Matrix(rng, 40, 96, p.T.Q) // multi-chunk: 2 ciphertexts per lane
	h, err := cl.RegisterMatrix(W)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := ev.Prepare(W)
	if err != nil {
		t.Fatal(err)
	}
	rb := Remote(cl, h, p)
	if rb.Rows() != pm.Rows() || rb.Cols() != pm.Cols() || rb.Chunks() != pm.Chunks() {
		t.Fatalf("handle shape %dx%d/%d differs from prepared %dx%d/%d",
			rb.Rows(), rb.Cols(), rb.Chunks(), pm.Rows(), pm.Cols(), pm.Chunks())
	}

	for _, layout := range []Layout{ColMajor, RowMajor} {
		var X [][]uint64
		if layout == ColMajor {
			X = testutil.Matrix(rng, 96, 3, p.T.Q)
		} else {
			X = testutil.Matrix(rng, 3, 96, p.T.Q)
		}
		xm, err := Array(p, rng, sk, X, layout)
		if err != nil {
			t.Fatal(err)
		}
		local, err := MatMul(Local(pm), xm)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := MatMul(rb, xm)
		if err != nil {
			t.Fatal(err)
		}
		if !packedEqual(local, remote) {
			t.Fatalf("%s: remote packed ciphertexts differ from local", layout)
		}
		var want [][]uint64
		if layout == ColMajor {
			want, err = ref.MatMul(p.T.Q, W, X)
		} else {
			want, err = ref.MatMul(p.T.Q, X, ref.Transpose(W))
		}
		if err != nil {
			t.Fatal(err)
		}
		eqMat(t, layout.String()+" remote", remote.Decrypt(sk), want)
	}

	// Misuse fails up front with the core sentinels, before any network
	// write: a short vector and a misshaped result slice.
	bad := [][]*rlwe.Ciphertext{{nil}}
	if err := rb.ApplyBatchInto([]*core.Result{rb.NewResult()}, bad); !errors.Is(err, core.ErrVectorLength) {
		t.Errorf("short vector: err = %v, want ErrVectorLength", err)
	}
	goodVec := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 96, p.T.Q))
	if err := rb.ApplyBatchInto([]*core.Result{nil}, [][]*rlwe.Ciphertext{goodVec}); !errors.Is(err, core.ErrResultShape) {
		t.Errorf("nil result: err = %v, want ErrResultShape", err)
	}
	if err := rb.ApplyBatchInto(nil, nil); !errors.Is(err, core.ErrVectorLength) {
		t.Errorf("empty batch: err = %v, want ErrVectorLength", err)
	}
}

// loopback starts a chamserve server on a loopback port, dials it and
// installs the packing keys of sk, which it returns.
func loopback(t *testing.T, p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey) (*client.Client, *lwe.PackingKeys) {
	t.Helper()
	s, err := server.New(server.Config{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { ln.Close() })

	cl, err := client.Dial(client.Config{Addr: ln.Addr().String(), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SetupKeys(keys); err != nil {
		t.Fatal(err)
	}
	return cl, keys
}

// TestRemoteBackendChecksVectorShape: the remote backend runs core's
// vector rule on every lane before its first write, so a chunk in the
// normal basis fails with core.ErrVectorBasis and never reaches the
// server, whose apply-request counter stays where it was; a good batch
// after it moves the counter by exactly its one lane.
func TestRemoteBackendChecksVectorShape(t *testing.T) {
	p, rng, sk, _ := setup(t, 64)
	cl, _ := loopback(t, p, rng, sk)
	h, err := cl.RegisterMatrix(testutil.Matrix(rng, 8, 96, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}
	rb := Remote(cl, h, p)
	applies := obs.GetCounter("cham_server_requests_total", "Inbound requests by message type.", "type", "apply")

	good := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 96, p.T.Q))
	normal := append([]*rlwe.Ciphertext(nil), good...)
	normal[1] = p.Encrypt(rng, sk, p.NewPlaintext(), p.NormalLevels)
	before := applies.Value()
	err = rb.ApplyBatchInto([]*core.Result{rb.NewResult(), rb.NewResult()}, [][]*rlwe.Ciphertext{good, normal})
	if !errors.Is(err, core.ErrVectorBasis) {
		t.Fatalf("normal-basis chunk: err = %v, want ErrVectorBasis", err)
	}
	if got := applies.Value(); got != before {
		t.Fatalf("the server received %d apply requests for a refused batch", got-before)
	}
	if err := rb.ApplyBatchInto([]*core.Result{rb.NewResult()}, [][]*rlwe.Ciphertext{good}); err != nil {
		t.Fatal(err)
	}
	if got := applies.Value(); got != before+1 {
		t.Fatalf("a one-lane batch moved the server's apply counter by %d, want 1", got-before)
	}
}
