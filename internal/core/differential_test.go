package core_test

import (
	"fmt"
	"math/big"
	"runtime"
	"testing"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/noise"
	"cham/internal/ref"
	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// Differential verification of the optimized HMVP pipeline against the
// big.Int reference model in internal/ref: same inputs, bit-for-bit equal
// packed ciphertexts, for every worker count, plus noise-budget invariants
// measured at each stage boundary of the reference trace. These are
// external tests (package core_test): the noise estimator they check
// against imports core.

func testParams(tb testing.TB, n int) bfv.Params {
	tb.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// workerCounts returns the deduplicated {1, 4, NumCPU} set the pipeline
// must be bit-identical across.
func workerCounts() []int {
	set := []int{1, 4, runtime.NumCPU()}
	var out []int
	for _, w := range set {
		dup := false
		for _, seen := range out {
			dup = dup || seen == w
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

// runDifferential drives one shape end to end: reference trace once, then
// the optimized pipeline (Prepare and the ApplyInto hot path, at every
// worker count) compared against it.
func runDifferential(t *testing.T, p bfv.Params, sk *rlwe.SecretKey, keys *evKeys, A [][]uint64, v []uint64, ctV []*rlwe.Ciphertext) *ref.Trace {
	t.Helper()
	tr, err := ref.HMVP(p, A, ctV, keys.ref)
	if err != nil {
		t.Fatal(err)
	}
	want := core.PlainMatVec(p, A, v)
	got := tr.DecryptResult(p, sk)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reference model row %d decrypts to %d, cleartext product is %d", i, got[i], want[i])
		}
	}
	for _, w := range workerCounts() {
		ev := &core.Evaluator{P: p, Keys: keys.opt, Workers: w}
		pm, err := ev.Prepare(A)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		out := pm.NewResult()
		// Apply twice into the same Result: scratch reuse must not leak
		// state between calls.
		for pass := 0; pass < 2; pass++ {
			if err := pm.ApplyInto(out, ctV); err != nil {
				t.Fatalf("workers=%d pass %d: %v", w, pass, err)
			}
			if err := tr.MatchesResult(p, out.Packed); err != nil {
				t.Fatalf("workers=%d ApplyInto pass %d: %v", w, pass, err)
			}
		}
		if dec := core.DecryptResult(p, out, sk); len(dec) != len(want) {
			t.Fatalf("workers=%d: decrypted %d rows, want %d", w, len(dec), len(want))
		} else {
			for i := range want {
				if dec[i] != want[i] {
					t.Fatalf("workers=%d row %d: optimized decrypts %d, want %d", w, i, dec[i], want[i])
				}
			}
		}
	}
	return tr
}

type evKeys struct {
	opt *lwe.PackingKeys
	ref map[int]*ref.SwitchingKey
}

// TestHMVPDifferentialN4096 is the headline differential check at the
// paper's ring degree: the full optimized pipeline must match the big.Int
// reference bit for bit across shapes covering non-power-of-two row counts
// and multi-chunk (2- and 3-chunk) column counts, at every worker count.
// Row counts stay small so the exact reference key-switch convolutions
// remain affordable; the optimized path runs the same code for any m.
//
// The shapes are pinned rather than drawn from the test's stream after
// KeyGen, so the subtest names (and the matrices seeded from them) do not
// move whenever the key sampler changes how much of that stream it reads.
// They cover the edges testutil.HMVPShapes guarantees: a single row over
// 2 chunks, a partial single chunk, non-power-of-two rows over 2 chunks,
// an exact 2-chunk boundary, and non-power-of-two rows over 3 chunks.
func TestHMVPDifferentialN4096(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 reference model skipped in -short mode")
	}
	rng := testutil.NewRand(t)
	p := testParams(t, 4096)
	sk := p.KeyGen(rng)
	ev, err := core.NewEvaluator(p, rng, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := &evKeys{opt: ev.Keys, ref: ref.Keys(p, ev.Keys)}
	n := p.R.N
	shapes := []testutil.Shape{
		{Rows: 1, Cols: n + 3322},
		{Rows: 2, Cols: 2669},
		{Rows: 3, Cols: n + 2195},
		{Rows: 4, Cols: 2 * n},
		{Rows: 6, Cols: 2*n + 3037},
	}
	for _, s := range shapes {
		s := s
		t.Run(fmt.Sprintf("%dx%d", s.Rows, s.Cols), func(t *testing.T) {
			t.Parallel()
			rng := testutil.NewRand(t)
			A := testutil.SparseMatrix(rng, s.Rows, s.Cols, 16, p.T.Q)
			v := testutil.Vector(rng, s.Cols, p.T.Q)
			ctV := core.EncryptVector(p, rng, sk, v)
			runDifferential(t, p, sk, keys, A, v, ctV)
		})
	}
}

// TestHMVPDifferentialN256 covers the smallest benchmarked ring degree:
// the hoisted key-switch and batched-NTT kernels must stay bit-identical
// to the reference model at N=256 too (a different twiddle-table shape and
// pack-tree depth than the headline N=4096 run), across all worker counts.
func TestHMVPDifferentialN256(t *testing.T) {
	rng := testutil.NewRand(t)
	p := testParams(t, 256)
	sk := p.KeyGen(rng)
	ev, err := core.NewEvaluator(p, rng, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := &evKeys{opt: ev.Keys, ref: ref.Keys(p, ev.Keys)}
	// Dense 6-row, 2-chunk matrix: non-power-of-two rows, padded to 8.
	rows, cols := 6, p.R.N+11
	A := testutil.Matrix(rng, rows, cols, p.T.Q)
	v := testutil.Vector(rng, cols, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	runDifferential(t, p, sk, keys, A, v, ctV)
}

// TestHMVPDifferentialChunkGroups holds the row MAC's chunk groups to the
// reference: the sweep sums a group of chunks wide and reduces once — at
// the CHAM moduli a group is 2^12 chunks, the lane-sum limit — and a later
// group adds into the outputs. At N=16 the vector spans 1, 2 and 5 chunks
// under a 5-row matrix, whose odd rows leave half-empty pairs, and a
// 17-row one, a full tile and a one-row tile; and 2^12+1 chunks (a second
// group of one) under 3 rows and under a one-row tile, the reference's
// slowest shapes, which -short skips. Every worker count.
func TestHMVPDifferentialChunkGroups(t *testing.T) {
	rng := testutil.NewRand(t)
	p := testParams(t, 16)
	sk := p.KeyGen(rng)
	ev, err := core.NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	keys := &evKeys{opt: ev.Keys, ref: ref.Keys(p, ev.Keys)}
	n := p.R.N
	for _, chunks := range []int{1, 2, 5, 1<<12 + 1} {
		shapes := []int{5, n + 1}
		if chunks > 5 {
			if testing.Short() {
				continue
			}
			shapes = []int{3, 1}
		}
		for _, rows := range shapes {
			t.Run(fmt.Sprintf("%dchunks/%drows", chunks, rows), func(t *testing.T) {
				cols := (chunks-1)*n + 3
				A := testutil.Matrix(rng, rows, cols, p.T.Q)
				v := testutil.Vector(rng, cols, p.T.Q)
				runDifferential(t, p, sk, keys, A, v, core.EncryptVector(p, rng, sk, v))
			})
		}
	}
}

// TestHMVPDifferentialNoise runs the differential check at N=512 with
// dense rows and, via the reference trace, measures the actual noise at
// every stage boundary of Alg. 1 against the analytic estimator. A failure
// names the stage that broke its bound.
func TestHMVPDifferentialNoise(t *testing.T) {
	rng := testutil.NewRand(t)
	p := testParams(t, 512)
	sk := p.KeyGen(rng)
	ev, err := core.NewEvaluator(p, rng, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := &evKeys{opt: ev.Keys, ref: ref.Keys(p, ev.Keys)}
	// Dense 5-row, 2-chunk matrix: non-power-of-two rows, padded to 8.
	rows, cols := 5, p.R.N+37
	A := testutil.Matrix(rng, rows, cols, p.T.Q)
	v := testutil.Vector(rng, cols, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	tr := runDifferential(t, p, sk, keys, A, v, ctV)

	est := noise.New(p)
	n := p.R.N
	full := p.R.Levels()
	fullQ := p.R.Modulus(full)
	normalQ := p.R.Modulus(p.NormalLevels)
	special := p.R.Moduli[full-1].Q
	deltaFull := p.Delta(full)
	sFull := ref.ComposeSecret(p, sk, full)
	sNormal := ref.ComposeSecret(p, sk, p.NormalLevels)

	// centredBits returns the magnitude (in bits) of x - want modulo q.
	centredBits := func(x, want, q *big.Int) float64 {
		d := new(big.Int).Sub(x, want)
		d.Mod(d, q)
		if d.Cmp(new(big.Int).Rsh(q, 1)) > 0 {
			d.Sub(d, q)
		}
		return float64(d.Abs(d).BitLen())
	}
	check := func(stage string, measured, bound float64) {
		t.Helper()
		if measured > bound {
			t.Errorf("stage %s: measured noise %.1f bits exceeds the estimator bound %.1f", stage, measured, bound)
		} else {
			t.Logf("stage %s: %.1f bits (bound %.1f)", stage, measured, bound)
		}
	}

	// Stage 0 — fresh vector chunks: phase must sit within FreshSym of
	// Δ_full·lift(v).
	for c, ct := range tr.Vector {
		ph := ct.Phase(sFull)
		measured := 0.0
		for i := 0; i < n; i++ {
			var lift int64
			if j := c*n + i; j < len(v) {
				lift = p.T.CenterLift(v[j])
			}
			want := new(big.Int).Mul(deltaFull, big.NewInt(lift))
			if b := centredBits(ph.Coeffs[i], want.Mod(want, fullQ), fullQ); b > measured {
				measured = b
			}
		}
		check(fmt.Sprintf("fresh-vector[chunk=%d]", c), measured, est.FreshSym())
	}

	// Exact per-row slot payload: round(Δ_full·(scale·A_i·v)/p_special),
	// the integer the DOTPRODUCT+RESCALE stages should leave at the
	// constant coefficient.
	mPad := 8
	scale := p.InvPow2(3)
	slotPayload := func(row []uint64) *big.Int {
		var dot int64
		for j, a := range row {
			lifted := p.T.CenterLift(scale * a % p.T.Q)
			dot += lifted * p.T.CenterLift(v[j])
		}
		x := new(big.Int).Mul(deltaFull, big.NewInt(dot))
		return ref.ModDownValue(x, special, normalQ)
	}
	mulBound := est.AfterMulPlain(est.FreshSym(), float64(p.T.Q)/2)
	slotBound := est.AfterRescale(mulBound)
	payloads := make([]*big.Int, rows)
	for i, slots := range tr.Slots[0] {
		payloads[i] = slotPayload(A[i])
		ph := slots.Phase(sNormal)
		check(fmt.Sprintf("dot+rescale+extract[row=%d]", i),
			centredBits(ph.Coeffs[0], payloads[i], normalQ), slotBound)
	}

	// Stage 5–9 — the packing tree multiplies each slot payload by mPad
	// and adds key-switch noise per level; the result must also clear the
	// decryption budget.
	packBound := est.AfterPackDeferred(slotBound, mPad)
	if budget := est.Budget(p.NormalLevels); packBound >= budget {
		t.Errorf("stage pack: estimator bound %.1f bits exceeds decryption budget %.1f", packBound, budget)
	}
	ph := tr.Packed[0].Phase(sNormal)
	stride := n / mPad
	for i := 0; i < rows; i++ {
		want := new(big.Int).Mul(payloads[i], big.NewInt(int64(mPad)))
		want.Mod(want, normalQ)
		check(fmt.Sprintf("pack[slot=%d]", i),
			centredBits(ph.Coeffs[i*stride], want, normalQ), packBound)
	}
}
