package bfv

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"cham/internal/mod"
	"cham/internal/ring"
	"cham/internal/rlwe"
	"cham/internal/testutil"
)

func testParams(tb testing.TB, n int) Params {
	tb.Helper()
	p, err := NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestNewParamsValidation(t *testing.T) {
	r := ring.MustNew(64, mod.ChamModuli())
	if _, err := NewParams(r, 2, 21, 1<<16); err == nil {
		t.Error("even t accepted")
	}
	if _, err := NewParams(r, 2, 21, mod.ChamQ0); err == nil {
		t.Error("t >= limb accepted")
	}
	p, err := NewParams(r, 2, 21, 65537)
	if err != nil {
		t.Fatal(err)
	}
	if !p.CanBatch() {
		t.Error("t=65537 should support batching at N=64")
	}
	// t = 13: odd prime but 13-1 not divisible by 2N -> no batching.
	p2, err := NewParams(r, 2, 21, 13)
	if err != nil {
		t.Fatal(err)
	}
	if p2.CanBatch() {
		t.Error("t=13 should not support batching")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	p := testParams(t, 256)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	pk := p.PublicKeyGen(rng, sk)

	pt := p.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i*7919) % p.T.Q
	}
	for _, levels := range []int{2, 3} {
		ct := p.Encrypt(rng, sk, pt, levels)
		dec := p.Decrypt(ct, sk)
		for i := range pt.Coeffs {
			if dec.Coeffs[i] != pt.Coeffs[i] {
				t.Fatalf("levels=%d: symmetric round trip differs at %d: %d vs %d",
					levels, i, dec.Coeffs[i], pt.Coeffs[i])
			}
		}
		ctPK := p.EncryptPKNTT(rng, pk, pt, levels)
		decPK := p.Decrypt(ctPK, sk)
		for i := range pt.Coeffs {
			if decPK.Coeffs[i] != pt.Coeffs[i] {
				t.Fatalf("levels=%d: public-key round trip differs at %d", levels, i)
			}
		}
	}
}

func TestHomomorphicAdd(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	f := func(seed int64) bool {
		r2 := rand.New(rand.NewSource(seed))
		a, b := p.NewPlaintext(), p.NewPlaintext()
		for i := range a.Coeffs {
			a.Coeffs[i] = r2.Uint64() % p.T.Q
			b.Coeffs[i] = r2.Uint64() % p.T.Q
		}
		cta := p.Encrypt(rng, sk, a, 2)
		ctb := p.Encrypt(rng, sk, b, 2)
		p.Add(cta, cta, ctb)
		dec := p.Decrypt(cta, sk)
		for i := range dec.Coeffs {
			if dec.Coeffs[i] != p.T.Add(a.Coeffs[i], b.Coeffs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestDotProductViaMulPlain is the heart of Alg. 1 lines 1-2: the constant
// coefficient of Dec(pt^(A_i) × ct^(v)) must equal the inner product.
func TestDotProductViaMulPlain(t *testing.T) {
	p := testParams(t, 256)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	n := p.R.N
	row := make([]uint64, n)
	vec := make([]uint64, n)
	var want uint64
	for j := 0; j < n; j++ {
		row[j] = uint64(rng.Intn(256))
		vec[j] = uint64(rng.Intn(256))
		want = p.T.Add(want, p.T.Mul(row[j], vec[j]))
	}
	ctV := p.Encrypt(rng, sk, p.EncodeVector(vec), 2)
	prod := p.MulPlain(ctV, p.EncodeRow(row, 1))
	dec := p.Decrypt(prod, sk)
	if got := dec.Coeffs[0]; got != want {
		t.Fatalf("dot product = %d, want %d", got, want)
	}
}

// TestMulPlainRescale exercises the augmented pipeline (stages 1-4) and
// checks the rescaled result still decrypts to the correct product.
func TestMulPlainRescale(t *testing.T) {
	p := testParams(t, 256)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	n := p.R.N
	row := make([]uint64, n)
	vec := make([]uint64, n)
	var want uint64
	for j := 0; j < n; j++ {
		row[j] = uint64(rng.Intn(1024))
		vec[j] = rng.Uint64() % p.T.Q
		want = p.T.Add(want, p.T.Mul(row[j], vec[j]))
	}
	ctV := p.Encrypt(rng, sk, p.EncodeVector(vec), 3) // augmented
	out := p.MulPlainRescale(ctV, p.EncodeRow(row, 1))
	if out.Levels() != 2 {
		t.Fatalf("rescaled ciphertext has %d limbs, want 2", out.Levels())
	}
	dec := p.Decrypt(out, sk)
	if got := dec.Coeffs[0]; got != want {
		t.Fatalf("dot product = %d, want %d", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MulPlainRescale accepted a normal-basis ciphertext")
			}
		}()
		p.MulPlainRescale(out, p.EncodeRow(row, 1))
	}()
}

// TestRescaleReducesNoise quantifies the paper's stage-4 claim: the
// augmented-multiply-then-rescale flow must leave strictly less noise than
// multiplying in the normal basis directly.
func TestRescaleReducesNoise(t *testing.T) {
	p := testParams(t, 256)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	n := p.R.N
	row := make([]uint64, n)
	vec := make([]uint64, n)
	for j := 0; j < n; j++ {
		row[j] = rng.Uint64() % p.T.Q
		vec[j] = rng.Uint64() % p.T.Q
	}
	pt := p.EncodeRow(row, 1)

	ctAug := p.Encrypt(rng, sk, p.EncodeVector(vec), 3)
	outAug := p.MulPlainRescale(ctAug, pt)
	decAug := p.Decrypt(outAug, sk)

	ctNorm := p.Encrypt(rng, sk, p.EncodeVector(vec), 2)
	outNorm := p.MulPlain(ctNorm, pt)
	decNorm := p.Decrypt(outNorm, sk)

	// Both must still decrypt identically (noise below Δ/2 in both paths).
	for i := range decAug.Coeffs {
		if decAug.Coeffs[i] != decNorm.Coeffs[i] {
			t.Fatalf("rescaled and direct products disagree at %d", i)
		}
	}
	// Compare residual noise against exact expected payloads.
	conv := bigConv(p, pt, p.EncodeVector(vec))

	// Normal path payload: Δ₂·conv mod Q₂.
	delta2 := p.Delta(2)
	wantNorm := make([]*big.Int, len(conv))
	for i, c := range conv {
		wantNorm[i] = new(big.Int).Mul(delta2, c)
	}
	nNorm := p.NoiseBits(outNorm, sk, wantNorm)

	// Augmented path payload after rescale: round(Δ₃·conv/P) mod Q₂.
	delta3 := p.Delta(3)
	pBig := new(big.Int).SetUint64(mod.ChamP)
	halfP := new(big.Int).Rsh(pBig, 1)
	wantAug := make([]*big.Int, len(conv))
	for i, c := range conv {
		v := new(big.Int).Mul(delta3, c)
		v.Add(v, halfP)
		v.Div(v, pBig)
		wantAug[i] = v
	}
	nAug := p.NoiseBits(outAug, sk, wantAug)

	if nAug >= nNorm {
		t.Errorf("rescale did not reduce noise: augmented %f bits vs normal %f bits", nAug, nNorm)
	}
	t.Logf("noise: normal-basis multiply %.0f bits, augmented+rescale %.0f bits", nNorm, nAug)
}

// bigConv returns the negacyclic convolution, over the integers, of the
// centred lifts of two plaintexts.
func bigConv(p Params, a, b *Plaintext) []*big.Int {
	n := p.R.N
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
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
				out[k].Add(out[k], tmp)
			} else {
				out[k-n].Sub(out[k-n], tmp)
			}
		}
	}
	return out
}

func TestAddPlainAndMulScalar(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	a := p.NewPlaintext()
	b := p.NewPlaintext()
	for i := range a.Coeffs {
		a.Coeffs[i] = rng.Uint64() % p.T.Q
		b.Coeffs[i] = rng.Uint64() % p.T.Q
	}
	ct := p.Encrypt(rng, sk, a, 2)
	p.AddPlain(ct, b)
	dec := p.Decrypt(ct, sk)
	for i := range dec.Coeffs {
		if dec.Coeffs[i] != p.T.Add(a.Coeffs[i], b.Coeffs[i]) {
			t.Fatalf("AddPlain wrong at %d", i)
		}
	}

	const c = 37
	ct2 := p.Encrypt(rng, sk, a, 2)
	out := &rlwe.Ciphertext{B: p.R.NewPoly(2), A: p.R.NewPoly(2)}
	p.MulScalar(out, ct2, c)
	dec2 := p.Decrypt(out, sk)
	for i := range dec2.Coeffs {
		if dec2.Coeffs[i] != p.T.Mul(a.Coeffs[i], c) {
			t.Fatalf("MulScalar wrong at %d: %d want %d", i, dec2.Coeffs[i], p.T.Mul(a.Coeffs[i], c))
		}
	}
}

// TestHomomorphicLaws property-tests distributivity of the homomorphic
// operations: Dec(c·(ct_a + ct_b) + pt) == c·(a+b) + pt mod t.
func TestHomomorphicLaws(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	f := func(cRaw uint16, seed int64) bool {
		c := uint64(cRaw)%64 + 1 // small scalar keeps noise bounded
		r2 := rand.New(rand.NewSource(seed))
		a, bb := p.NewPlaintext(), p.NewPlaintext()
		for i := range a.Coeffs {
			a.Coeffs[i] = r2.Uint64() % p.T.Q
			bb.Coeffs[i] = r2.Uint64() % p.T.Q
		}
		cta := p.Encrypt(rng, sk, a, 2)
		ctb := p.Encrypt(rng, sk, bb, 2)
		p.Add(cta, cta, ctb)
		out := &rlwe.Ciphertext{B: p.R.NewPoly(2), A: p.R.NewPoly(2)}
		p.MulScalar(out, cta, c)
		p.AddPlain(out, a)
		dec := p.Decrypt(out, sk)
		for i := range dec.Coeffs {
			want := p.T.Add(p.T.Mul(c, p.T.Add(a.Coeffs[i], bb.Coeffs[i])), a.Coeffs[i])
			if dec.Coeffs[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestMustChamParamsPanics(t *testing.T) {
	if p := MustChamParams(64); p.R.N != 64 {
		t.Error("valid params wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustChamParams(3) did not panic")
		}
	}()
	MustChamParams(3)
}

func TestInvPow2EvenTPanics(t *testing.T) {
	// Construct params with t odd is enforced by TryNew, so exercise the
	// guard directly through a hand-built Params would need an even T,
	// which the constructor forbids — assert that instead.
	r := ring.MustNew(16, mod.ChamModuli())
	if _, err := NewParams(r, 2, 21, 4096); err == nil {
		t.Fatal("even plaintext modulus accepted")
	}
}

func TestEncodeSlotsErrors(t *testing.T) {
	p := testParams(t, 64)
	if _, err := p.EncodeSlots(make([]uint64, p.R.N+1)); err == nil {
		t.Error("oversized slot vector accepted")
	}
	r := ring.MustNew(64, mod.ChamModuli())
	noBatch, _ := NewParams(r, 2, 21, 13)
	if _, err := noBatch.EncodeSlots([]uint64{1}); err == nil {
		t.Error("EncodeSlots without batching accepted")
	}
	if _, err := noBatch.DecodeSlots(noBatch.NewPlaintext()); err == nil {
		t.Error("DecodeSlots without batching accepted")
	}
}
