package core

import (
	"errors"
	"testing"

	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// wantErr asserts err wraps the expected sentinel (the typed classes the
// metrics layer counts).
func wantErr(t *testing.T, err, sentinel error, what string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: no error", what)
		return
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("%s: error %q does not wrap %q", what, err, sentinel)
	}
}

// ctEqual compares two ciphertexts coefficient for coefficient.
func ctEqual(a, b *rlwe.Ciphertext) bool {
	if a.Levels() != b.Levels() || a.IsNTT() != b.IsNTT() {
		return false
	}
	for l := 0; l < a.Levels(); l++ {
		for j := range a.B.Coeffs[l] {
			if a.B.Coeffs[l][j] != b.B.Coeffs[l][j] || a.A.Coeffs[l][j] != b.A.Coeffs[l][j] {
				return false
			}
		}
	}
	return true
}

// TestPreparedApplyRandomShapes: Prepare+ApplyInto must decrypt to the
// cleartext product over fixed shapes (m > N with a one-row last tile;
// three column chunks, then two, which reuse the pooled vector scratch
// below its capacity) and random shapes, including non-power-of-two row
// counts and multi-chunk column counts, and a repeated ApplyInto into the
// same Result (exercising the pooled scratch) must reproduce the first
// call's ciphertexts bit for bit.
func TestPreparedApplyRandomShapes(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	shapes := [][2]int{{p.R.N + 1, 16}, {3, 2*p.R.N + 1}, {2, p.R.N + 1}}
	for len(shapes) < 9 {
		shapes = append(shapes, [2]int{
			1 + rng.Intn(2*p.R.N), // up to two row tiles
			1 + rng.Intn(3*p.R.N), // up to three column chunks
		})
	}
	for trial, s := range shapes {
		m, n := s[0], s[1]
		A := randomMatrix(rng, m, n, p.T.Q)
		v := randomVector(rng, n, p.T.Q)
		ctV := EncryptVector(p, rng, sk, v)

		pm, err := ev.Prepare(A)
		if err != nil {
			t.Fatalf("trial %d (%dx%d): %v", trial, m, n, err)
		}
		if pm.Rows() != m || pm.Cols() != n {
			t.Fatalf("trial %d: prepared shape %dx%d, want %dx%d", trial, pm.Rows(), pm.Cols(), m, n)
		}
		want := PlainMatVec(p, A, v)
		first := pm.NewResult()
		res := pm.NewResult()
		for rep := 0; rep < 2; rep++ {
			if err := pm.ApplyInto(res, ctV); err != nil {
				t.Fatalf("trial %d rep %d: %v", trial, rep, err)
			}
			got := DecryptResult(p, res, sk)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d rep %d row %d: decrypted %d, want %d", trial, rep, i, got[i], want[i])
				}
			}
			for ti, ct := range res.Packed {
				if rep == 0 {
					first.Packed[ti].CopyFrom(ct)
				} else if !ctEqual(first.Packed[ti], ct) {
					t.Errorf("trial %d tile %d: repeated ApplyInto differs from the first", trial, ti)
				}
			}
		}
	}
}

// TestPreparedValidation: Apply-side error paths.
func TestPreparedValidation(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ev.Prepare(nil)
	wantErr(t, err, ErrEmptyMatrix, "empty matrix")
	_, err = ev.Prepare([][]uint64{{}})
	wantErr(t, err, ErrEmptyMatrix, "zero-column matrix")
	_, err = ev.Prepare([][]uint64{{1, 2}, {1}})
	wantErr(t, err, ErrRaggedMatrix, "ragged matrix")
	_, err = ev.Prepare(randomMatrix(rng, 8, 16, p.T.Q))
	wantErr(t, err, ErrTileTooLarge, "tile beyond packing keys")
	_, err = ev.Prepare(randomMatrix(rng, p.R.N+1, 16, 3))
	wantErr(t, err, ErrTileTooLarge, "multi-tile matrix beyond packing keys")
	pm, err := ev.Prepare(randomMatrix(rng, 4, 16, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}
	ctV := EncryptVector(p, rng, sk, randomVector(rng, 16, p.T.Q))
	_, err = pm.Apply(append(ctV, ctV...))
	wantErr(t, err, ErrVectorLength, "chunk-count mismatch")
	// A ciphertext without the augmented basis must be rejected.
	bad := []*rlwe.Ciphertext{p.Encrypt(rng, sk, p.NewPlaintext(), p.NormalLevels)}
	_, err = pm.Apply(bad)
	wantErr(t, err, ErrVectorBasis, "normal-basis vector ciphertext")
	// So must one of another ring degree: same chunk and limb counts,
	// twice the words per limb.
	p32 := testParams(t, 32)
	wide := EncryptVector(p32, rng, p32.KeyGen(rng), randomVector(rng, 16, p.T.Q))
	_, err = pm.Apply(wide)
	wantErr(t, err, ErrVectorBasis, "vector ciphertext of another ring degree")
	// A bad second vector fails the batch before the first is applied.
	res := []*Result{pm.NewResult(), pm.NewResult()}
	err = pm.ApplyBatchInto(res, [][]*rlwe.Ciphertext{ctV, bad})
	wantErr(t, err, ErrVectorBasis, "batch with a normal-basis second vector")
	untouched := pm.NewResult().Packed[0]
	if got := res[0].Packed[0]; !got.B.Equal(untouched.B) || !got.A.Equal(untouched.A) {
		t.Error("failed batch wrote its first vector's result")
	}
}

// TestPreparedMisuse: every wrong way to hold the ApplyInto/evaluator API
// must come back as an error, never a panic.
func TestPreparedMisuse(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	if _, err := NewEvaluator(p, rng, sk, 0); err == nil {
		t.Error("NewEvaluator accepted maxRows=0")
	}
	if _, err := NewEvaluator(p, rng, sk, -3); err == nil {
		t.Error("NewEvaluator accepted negative maxRows")
	}

	ev, err := NewEvaluator(p, rng, sk, 4)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := ev.Prepare(randomMatrix(rng, 4, 16, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}
	ctV := EncryptVector(p, rng, sk, randomVector(rng, 16, p.T.Q))

	// Results that did not come from NewResult must be rejected by shape.
	wantErr(t, pm.ApplyInto(&Result{}, ctV), ErrResultShape, "empty Result")
	wantErr(t, pm.ApplyInto(&Result{Packed: []*rlwe.Ciphertext{nil}}, ctV),
		ErrResultShape, "nil result tile")
	short := &Result{Packed: []*rlwe.Ciphertext{{B: p.R.NewPoly(1), A: p.R.NewPoly(1)}}}
	wantErr(t, pm.ApplyInto(short, ctV), ErrResultShape, "result tile with too few limbs")
	tiny := &Result{Packed: []*rlwe.Ciphertext{
		{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)},
	}}
	tiny.Packed[0].B.Coeffs[0] = tiny.Packed[0].B.Coeffs[0][:4]
	wantErr(t, pm.ApplyInto(tiny, ctV), ErrResultShape, "result tile with the wrong ring degree")
	// A vector ciphertext whose parts disagree must be rejected, not copied.
	ragged := []*rlwe.Ciphertext{{B: ctV[0].B, A: p.R.NewPoly(p.NormalLevels)}}
	wantErr(t, pm.ApplyInto(pm.NewResult(), ragged), ErrVectorBasis, "vector ciphertext with a short A")
	// A well-shaped Result still works after all the rejections (the
	// validation must be side-effect free).
	if err := pm.ApplyInto(pm.NewResult(), ctV); err != nil {
		t.Errorf("valid ApplyInto failed after misuse attempts: %v", err)
	}

	// MatVec argument errors.
	_, err = ev.MatVec([][]uint64{{1, 2}, {3}}, ctV)
	wantErr(t, err, ErrRaggedMatrix, "MatVec ragged matrix")
	_, err = ev.MatVec(randomMatrix(rng, 2, 16, p.T.Q), nil)
	wantErr(t, err, ErrVectorLength, "MatVec missing vector")
	_, err = ev.MatVec(nil, ctV)
	wantErr(t, err, ErrEmptyMatrix, "MatVec empty matrix")
}

// TestErrorClassCounters: each misuse increments the matching
// cham_hmvp_errors_total class counter exactly once.
func TestErrorClassCounters(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctV := EncryptVector(p, rng, sk, randomVector(rng, 16, p.T.Q))

	classCount := func(sentinel error) uint64 {
		for _, ec := range errClasses {
			if errors.Is(sentinel, ec.sentinel) {
				return ec.counter.Value()
			}
		}
		t.Fatalf("no class counter for %v", sentinel)
		return 0
	}
	for _, tc := range []struct {
		sentinel error
		trigger  func() error
	}{
		{ErrEmptyMatrix, func() error { _, err := ev.Prepare(nil); return err }},
		{ErrRaggedMatrix, func() error { _, err := ev.MatVec([][]uint64{{1, 2}, {3}}, ctV); return err }},
		{ErrVectorLength, func() error { _, err := ev.MatVec(randomMatrix(rng, 2, 16, p.T.Q), nil); return err }},
		{ErrTileTooLarge, func() error { _, err := ev.Prepare(randomMatrix(rng, 8, 16, p.T.Q)); return err }},
	} {
		before := classCount(tc.sentinel)
		if err := tc.trigger(); err == nil {
			t.Errorf("%v: trigger produced no error", tc.sentinel)
			continue
		}
		if got := classCount(tc.sentinel); got != before+1 {
			t.Errorf("%v: class counter went %d -> %d, want +1", tc.sentinel, before, got)
		}
	}
}

// TestPrepareTilesSparse: a sparsely prepared matrix applies exactly the
// tiles it owns, bit-identical to the full preparation (the invariant the
// sharded serving tier builds on), lazily fills in missing tiles with
// PrepareTile, and rejects touching an unprepared tile with the typed
// sentinel.
func TestPrepareTilesSparse(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	m, n := 3*p.R.N+5, p.R.N+7 // four row tiles (one short), two column chunks
	A := randomMatrix(rng, m, n, p.T.Q)
	v := randomVector(rng, n, p.T.Q)
	ctV := EncryptVector(p, rng, sk, v)

	full, err := ev.Prepare(A)
	if err != nil {
		t.Fatal(err)
	}
	ref := full.NewResult()
	if err := full.ApplyInto(ref, ctV); err != nil {
		t.Fatal(err)
	}

	own := []int{0, 2} // a shard's non-contiguous subset
	pm, err := ev.PrepareTiles(A, own)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Tiles() != full.Tiles() {
		t.Fatalf("sparse matrix reports %d tiles, full reports %d", pm.Tiles(), full.Tiles())
	}
	for ti := 0; ti < pm.Tiles(); ti++ {
		want := ti == 0 || ti == 2
		if pm.HasTile(ti) != want {
			t.Errorf("HasTile(%d) = %v, want %v", ti, pm.HasTile(ti), want)
		}
	}
	if pm.HasTile(-1) || pm.HasTile(pm.Tiles()) {
		t.Error("HasTile accepted an out-of-range index")
	}
	if got := pm.tile(3).Rows; got != m-3*p.R.N {
		t.Errorf("tile 3 has %d rows, want %d", got, m-3*p.R.N)
	}

	newOut := func(k int) []*rlwe.Ciphertext {
		out := make([]*rlwe.Ciphertext, k)
		for i := range out {
			out[i] = &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
		}
		return out
	}
	out := newOut(len(own))
	if err := pm.ApplyTiles(out, own, ctV, nil); err != nil {
		t.Fatal(err)
	}
	for k, ti := range own {
		if !ctEqual(out[k], ref.Packed[ti]) {
			t.Errorf("sparse tile %d differs from full apply", ti)
		}
	}

	// Unprepared and out-of-range tiles come back as typed sentinels.
	wantErr(t, pm.ApplyTiles(newOut(1), []int{1}, ctV, nil), ErrTileNotPrepared, "unprepared tile")
	wantErr(t, pm.ApplyTiles(newOut(1), []int{9}, ctV, nil), ErrTileIndex, "out-of-range tile")
	wantErr(t, pm.ApplyInto(pm.NewResult(), ctV), ErrTileNotPrepared, "full apply on sparse matrix")
	wantErr(t, pm.ApplyTiles(newOut(2), []int{0}, ctV, nil), ErrResultShape, "output slot count mismatch")
	wantErr(t, pm.PrepareTile(A, 17), ErrTileIndex, "PrepareTile out of range")
	wantErr(t, pm.PrepareTile(A[:1], 1), ErrRaggedMatrix, "PrepareTile wrong row count")

	// Lazy fill-in: after PrepareTile the remaining tiles apply and the
	// whole matrix matches the full preparation; re-preparing is a no-op.
	for _, ti := range []int{1, 3, 1} {
		if err := pm.PrepareTile(A, ti); err != nil {
			t.Fatal(err)
		}
	}
	res := pm.NewResult()
	if err := pm.ApplyInto(res, ctV); err != nil {
		t.Fatal(err)
	}
	for ti := range ref.Packed {
		if !ctEqual(res.Packed[ti], ref.Packed[ti]) {
			t.Errorf("tile %d differs after lazy preparation", ti)
		}
	}

	// PrepareTiles with an empty (non-nil) subset validates but prepares
	// nothing.
	empty, err := ev.PrepareTiles(A, []int{})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < empty.Tiles(); ti++ {
		if empty.HasTile(ti) {
			t.Errorf("empty subset prepared tile %d", ti)
		}
	}
	_, err = ev.PrepareTiles(A, []int{0, 99})
	wantErr(t, err, ErrTileIndex, "PrepareTiles out-of-range subset")
}
