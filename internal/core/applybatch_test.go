package core

import (
	"testing"

	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// TestApplyBatchMatchesSequential: a batched apply must produce exactly
// the ciphertexts of one ApplyInto per vector — the batch surface only
// hoists bookkeeping, never changes the arithmetic.
func TestApplyBatchMatchesSequential(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	// 70 rows spans two tiles at N=64; 96 columns spans two chunks.
	A := testutil.Matrix(rng, 70, 96, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	vecs := make([][]*rlwe.Ciphertext, batch)
	plain := make([][]uint64, batch)
	for k := range vecs {
		plain[k] = testutil.Vector(rng, 96, p.T.Q)
		vecs[k] = EncryptVector(p, rng, sk, plain[k])
	}
	got := make([]*Result, batch)
	for k := range got {
		got[k] = pm.NewResult()
	}
	if err := pm.ApplyBatchInto(got, vecs); err != nil {
		t.Fatal(err)
	}
	for k := range vecs {
		want, err := pm.Apply(vecs[k])
		if err != nil {
			t.Fatal(err)
		}
		for ti := range want.Packed {
			if !ctEqual(got[k].Packed[ti], want.Packed[ti]) {
				t.Fatalf("vector %d tile %d: batched apply differs from sequential", k, ti)
			}
		}
		dec := DecryptResult(p, got[k], sk)
		for i, w := range PlainMatVec(p, A, plain[k]) {
			if dec[i] != w {
				t.Fatalf("vector %d row %d: got %d want %d", k, i, dec[i], w)
			}
		}
	}
}

// TestApplyBatchValidation: every misuse of the batch surface must fail
// with a typed sentinel BEFORE any transform runs — a short batch, nil
// entries, or misshaped result tiles used to be late panics.
func TestApplyBatchValidation(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 8, 64, p.T.Q)
	pm, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	v := EncryptVector(p, rng, sk, testutil.Vector(rng, 64, p.T.Q))
	good := pm.NewResult()

	wantErr(t, pm.ApplyBatchInto(nil, nil), ErrVectorLength, "empty batch")

	// Short result slice for a two-vector batch.
	wantErr(t, pm.ApplyBatchInto([]*Result{good}, [][]*rlwe.Ciphertext{v, v}),
		ErrResultShape, "short result batch")

	// Nil result entry.
	wantErr(t, pm.ApplyBatchInto([]*Result{nil}, [][]*rlwe.Ciphertext{v}),
		ErrResultShape, "nil result")

	// Result tile at the wrong level count.
	bad := pm.NewResult()
	bad.Packed[0] = &rlwe.Ciphertext{B: p.R.NewPoly(p.R.Levels()), A: p.R.NewPoly(p.R.Levels())}
	wantErr(t, pm.ApplyBatchInto([]*Result{bad}, [][]*rlwe.Ciphertext{v}),
		ErrResultShape, "misshaped result tile")

	// Wrong chunk count in one column block of an otherwise fine batch.
	short := v[:0]
	wantErr(t, pm.ApplyBatchInto([]*Result{good, pm.NewResult()}, [][]*rlwe.Ciphertext{v, short}),
		ErrVectorLength, "short column block")

	// Nil ciphertext inside a column block.
	wantErr(t, pm.ApplyBatchInto([]*Result{good}, [][]*rlwe.Ciphertext{{nil}}),
		ErrVectorLength, "nil vector ciphertext")

	// The single-vector paths share the guards: a nil ciphertext must be
	// a typed error there too, not a panic in loadVector.
	wantErr(t, pm.ApplyInto(good, []*rlwe.Ciphertext{nil}), ErrVectorLength, "ApplyInto nil ciphertext")
	if _, err := ev.MatVec(A, []*rlwe.Ciphertext{nil}); err == nil {
		t.Error("MatVec with nil ciphertext: no error")
	}

	// After all the failures above, a clean batch still works: validation
	// must not have corrupted pooled scratch.
	if err := pm.ApplyBatchInto([]*Result{good}, [][]*rlwe.Ciphertext{v}); err != nil {
		t.Fatalf("clean batch after failures: %v", err)
	}
}

// TestApplyBatchSparseTile: a sparsely prepared matrix reports
// ErrTileNotPrepared for the whole batch up front.
func TestApplyBatchSparseTile(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 70, 64, p.T.Q) // two tiles
	pm, err := ev.PrepareTiles(A, []int{0})  // tile 1 missing
	if err != nil {
		t.Fatal(err)
	}
	v := EncryptVector(p, rng, sk, testutil.Vector(rng, 64, p.T.Q))
	wantErr(t, pm.ApplyBatchInto([]*Result{pm.NewResult()}, [][]*rlwe.Ciphertext{v}),
		ErrTileNotPrepared, "sparse batch")
}
