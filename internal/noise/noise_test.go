package noise

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/rlwe"
)

func testSetup(tb testing.TB, n int) (bfv.Params, *Estimator, *rand.Rand, *rlwe.SecretKey) {
	tb.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	return p, New(p), rng, p.KeyGen(rng)
}

// checkBound asserts measured ≤ predicted and predicted is not wildly
// pessimistic (within `slackBits` of the measurement).
func checkBound(t *testing.T, name string, measured, predicted, slackBits float64) {
	t.Helper()
	if measured > predicted {
		t.Errorf("%s: measured %.1f bits exceeds prediction %.1f", name, measured, predicted)
	}
	if predicted > measured+slackBits {
		t.Errorf("%s: prediction %.1f bits is %.1f above measurement %.1f (too loose)",
			name, predicted, predicted-measured, measured)
	}
	t.Logf("%s: measured %.1f, predicted %.1f bits", name, measured, predicted)
}

func TestFreshNoiseBounds(t *testing.T) {
	p, est, rng, sk := testSetup(t, 256)
	ct := p.EncryptZeroSym(rng, sk, 2)
	checkBound(t, "fresh symmetric", p.NoiseBits(ct, sk, nil), est.FreshSym(), 6)
}

func TestMulPlainAndRescaleBounds(t *testing.T) {
	p, est, rng, sk := testSetup(t, 256)

	vec := make([]uint64, p.R.N)
	row := make([]uint64, p.R.N)
	for i := range vec {
		vec[i] = rng.Uint64() % p.T.Q
		row[i] = rng.Uint64() % p.T.Q
	}
	pt := p.EncodeRow(row, 1)
	ctAug := p.Encrypt(rng, sk, p.EncodeVector(vec), 3)

	// Expected payload for noise measurement: Δ₃·(row * vec) / P rounded.
	prodCt := p.MulPlainRescale(ctAug, pt)
	want := expectedRescaledPayload(p, pt, p.EncodeVector(vec))
	measured := p.NoiseBits(prodCt, sk, want)

	mul := est.AfterMulPlain(est.FreshSym(), float64(p.T.Q)/2)
	predicted := est.AfterRescale(mul)
	checkBound(t, "mul+rescale", measured, predicted, 10)

	// The paper's point: the rescaled noise must sit far below the direct
	// (normal-basis) multiplication noise.
	if direct := est.AfterMulPlain(est.FreshSym(), float64(p.T.Q)/2); predicted >= direct {
		t.Errorf("rescale estimate %.1f not below direct-mul estimate %.1f", predicted, direct)
	}
}

func TestKeySwitchBound(t *testing.T) {
	p, est, rng, sk := testSetup(t, 256)
	sk2 := p.KeyGen(rng)
	swk := p.SwitchingKeyGen(rng, sk, sk2.Value)
	ct := p.EncryptZeroSym(rng, sk2, 2)
	switched := p.KeySwitch(ct, swk)
	measured := p.NoiseBits(switched, sk, nil)
	predicted := est.KeySwitchAdditive() + 1 // plus the carried fresh noise
	checkBound(t, "key switch", measured, predicted, 8)
}

func TestPackBound(t *testing.T) {
	p, est, rng, sk := testSetup(t, 256)
	const m = 64
	keys, err := lwe.GenPackingKeys(p, rng, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*lwe.Ciphertext, m)
	mus := make([]uint64, m)
	for i := range cts {
		mus[i] = rng.Uint64() % p.T.Q
		ct := p.Encrypt(rng, sk, p.EncodeVector([]uint64{mus[i]}), 2)
		cts[i] = lwe.Extract(p, ct, 0)
	}
	packed, err := lwe.PackLWEs(p, cts, keys)
	if err != nil {
		t.Fatal(err)
	}
	// The phase at slot i·stride must be m·Δ·lift(μ_i) + noise; positions
	// between slots carry algorithmic garbage and are excluded (downstream
	// consumers never read them).
	phase := p.Phase(packed, sk)
	vals := p.R.ToBigIntCentered(phase, 2)
	delta := p.Delta(2)
	q := p.R.Modulus(2)
	half := new(big.Int).Rsh(q, 1)
	stride := lwe.SlotStride(p.R.N, m)
	measured := 0.0
	diff := new(big.Int)
	for i := 0; i < m; i++ {
		want := new(big.Int).Mul(delta, big.NewInt(p.T.CenterLift(mus[i])))
		want.Mul(want, big.NewInt(m))
		diff.Sub(vals[i*stride], want)
		diff.Mod(diff, q)
		if diff.Cmp(half) > 0 {
			diff.Sub(diff, q)
		}
		if b := float64(new(big.Int).Abs(diff).BitLen()); b > measured {
			measured = b
		}
	}
	// The tree runs the deferred ModDown schedule (DESIGN.md §12).
	checkBound(t, "pack-64 deferred", measured, est.AfterPackDeferred(est.FreshSym(), m), 12)
}

// eagerPackBound bounds noise after packing m = 2^l LWE ciphertexts whose
// inputs carry noise 2^base on a tree that rescales after every merge:
// each level doubles the carried noise and adds one whole key switch, so
// Σ 2^j·ks over the levels ≈ 2^levels·ks.
func eagerPackBound(e *Estimator, base float64, m int) float64 {
	levels := 0
	for v := 1; v < m; v <<= 1 {
		levels++
	}
	carried := base + float64(levels)
	ksTotal := e.KeySwitchAdditive() + float64(levels)
	return math.Log2(math.Pow(2, carried) + math.Pow(2, ksTotal))
}

// TestDeferredModDownInvariant: deferring the b-part ModDown across tree
// levels never costs noise — for every tile size the deferred bound sits
// at or below the eager bound, and the end-to-end estimate (which uses
// the deferred schedule) still clears the decryption budget.
func TestDeferredModDownInvariant(t *testing.T) {
	p, est, _, _ := testSetup(t, 256)
	for m := 1; m <= p.R.N; m <<= 1 {
		fresh := est.FreshSym()
		eager := eagerPackBound(est, fresh, m)
		deferred := est.AfterPackDeferred(fresh, m)
		if deferred > eager+1e-9 {
			t.Errorf("m=%d: deferred bound %.2f exceeds eager bound %.2f", m, deferred, eager)
		}
		if out := est.HMVPOutput(m, 1); out >= est.Budget(p.NormalLevels) {
			t.Errorf("m=%d: deferred HMVP estimate %.1f exceeds budget %.1f",
				m, out, est.Budget(p.NormalLevels))
		}
	}
}

// TestHMVPBudget: the end-to-end estimate stays below the decryption
// budget at every tile size — and real HMVPs at the extremes decrypt
// correctly (the functional proof).
func TestHMVPBudget(t *testing.T) {
	p, est, rng, sk := testSetup(t, 256)
	for m := 1; m <= p.R.N; m <<= 1 {
		if est.HMVPOutput(m, 1) >= est.Budget(2) {
			t.Errorf("m=%d: estimated noise %.1f exceeds budget %.1f",
				m, est.HMVPOutput(m, 1), est.Budget(2))
		}
	}
	if got := est.MaxPackRows(); got != p.R.N {
		t.Errorf("MaxPackRows = %d, want full N=%d at CHAM parameters", got, p.R.N)
	}
	// Functional check at the largest tile.
	ev, err := core.NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	A := make([][]uint64, p.R.N)
	for i := range A {
		A[i] = make([]uint64, p.R.N)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % p.T.Q
		}
	}
	v := make([]uint64, p.R.N)
	for j := range v {
		v[j] = rng.Uint64() % p.T.Q
	}
	res, err := ev.MatVec(A, core.EncryptVector(p, rng, sk, v))
	if err != nil {
		t.Fatal(err)
	}
	got := core.DecryptResult(p, res, sk)
	want := core.PlainMatVec(p, A, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("full-tile HMVP wrong at %d", i)
		}
	}
}

// TestBudgetMatchesDesignDoc: the DESIGN.md §3 numbers — Δ ≈ 2^51 at the
// normal basis for t=65537.
func TestBudgetMatchesDesignDoc(t *testing.T) {
	_, est, _, _ := testSetup(t, 256)
	b := est.Budget(2)
	if b < 50 || b > 53 {
		t.Errorf("budget %.1f bits, DESIGN.md expects ≈ 51", b)
	}
}

// expectedRescaledPayload computes round(Δ₃·(a*b)/P) over the integers.
func expectedRescaledPayload(p bfv.Params, a, b *bfv.Plaintext) []*big.Int {
	n := p.R.N
	conv := make([]*big.Int, n)
	for i := range conv {
		conv[i] = new(big.Int)
	}
	tmp := new(big.Int)
	for i := 0; i < n; i++ {
		ai := p.T.CenterLift(a.Coeffs[i])
		if ai == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			bj := p.T.CenterLift(b.Coeffs[j])
			if bj == 0 {
				continue
			}
			tmp.SetInt64(ai)
			tmp.Mul(tmp, big.NewInt(bj))
			k := i + j
			if k < n {
				conv[k].Add(conv[k], tmp)
			} else {
				conv[k-n].Sub(conv[k-n], tmp)
			}
		}
	}
	delta3 := p.Delta(3)
	pBig := new(big.Int).SetUint64(p.R.Moduli[2].Q)
	half := new(big.Int).Rsh(pBig, 1)
	out := make([]*big.Int, n)
	for i, c := range conv {
		v := new(big.Int).Mul(delta3, c)
		v.Add(v, half)
		v.Div(v, pBig)
		out[i] = v
	}
	return out
}

// TestHMVPPredictorZeroAllocs: the predictor the chamnp MatMul gate
// calls per product allocates nothing, and building it at most one
// closure.
func TestHMVPPredictorZeroAllocs(t *testing.T) {
	_, est, _, _ := testSetup(t, 64)
	if allocs := testing.AllocsPerRun(100, func() { _ = est.HMVPPredictor(64, 3) }); allocs > 1 {
		t.Errorf("building the predictor allocates %.1f/op", allocs)
	}
	pred := est.HMVPPredictor(64, 3)
	if allocs := testing.AllocsPerRun(100, func() { _ = pred(20) }); allocs != 0 {
		t.Errorf("predictor call allocates %.1f/op, want 0", allocs)
	}
}

// TestHMVPPredictorCountsChunks: the row MAC sums one product per column
// chunk, so the predictor must hold the measured output noise of a real
// HMVP at every chunk count. Inputs carry raised noise (an encryption of
// zero times a scalar added to each chunk), so the carried noise, not the
// rescale rounding, dominates the output; each shape and noise level
// runs several vectors and holds the worst slot to the prediction from
// the worst input chunk.
func TestHMVPPredictorCountsChunks(t *testing.T) {
	p, est, rng, sk := testSetup(t, 256)
	const m, vectors = 4, 8
	ev, err := core.NewEvaluator(p, rng, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 16, 64} {
		cols := chunks * p.R.N
		A := make([][]uint64, m)
		for i := range A {
			A[i] = make([]uint64, cols)
			for j := range A[i] {
				A[i][j] = rng.Uint64() % p.T.Q
			}
		}
		pm, err := ev.Prepare(A)
		if err != nil {
			t.Fatal(err)
		}
		for _, inBits := range []int{26, 30, 34} {
			input, measured := 0.0, 0.0
			for range vectors {
				v := make([]uint64, cols)
				for j := range v {
					v[j] = rng.Uint64() % p.T.Q
				}
				ctV := core.EncryptVector(p, rng, sk, v)
				for c, ct := range ctV {
					z := p.EncryptSym(rng, sk, p.R.NewPoly(p.R.Levels())) // in the chunk's domain, NTT
					p.MulScalar(z, z, uint64(1)<<(inBits-int(est.FreshSym())))
					p.Add(ct, ct, z)
					input = max(input, p.NoiseBits(ct, sk, scaledPayload(p, v[c*p.R.N:(c+1)*p.R.N], p.R.Levels())))
				}
				res, err := pm.Apply(ctV)
				if err != nil {
					t.Fatal(err)
				}
				want := core.PlainMatVec(p, A, v)
				if got := core.DecryptResult(p, res, sk); !equal(got, want) {
					t.Fatalf("chunks=%d, %d-bit input: HMVP decrypts wrong", chunks, inBits)
				}
				measured = max(measured, est.MeasureResult(res, sk, want))
			}
			predicted := est.HMVPPredictor(m, chunks)(input)
			if measured > predicted {
				t.Errorf("chunks=%d, input %.1f bits: measured %.1f bits exceeds prediction %.1f",
					chunks, input, measured, predicted)
			}
			t.Logf("chunks=%d, input %.1f bits: measured %.1f, predicted %.1f", chunks, input, measured, predicted)
		}
	}
}

// scaledPayload returns Δ·lift(v_j) at the given level count, coefficient
// by coefficient: the noise-free phase of a dense chunk encrypting v.
func scaledPayload(p bfv.Params, v []uint64, levels int) []*big.Int {
	delta := p.Delta(levels)
	out := make([]*big.Int, len(v))
	for j, x := range v {
		out[j] = new(big.Int).Mul(delta, big.NewInt(p.T.CenterLift(x)))
	}
	return out
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
