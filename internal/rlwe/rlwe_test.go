package rlwe

import (
	"math/big"
	"math/rand"
	"testing"

	"cham/internal/mod"
	"cham/internal/ring"
	"cham/internal/testutil"
)

// testParams returns CHAM-moduli params at degree n.
func testParams(tb testing.TB, n int) Params {
	tb.Helper()
	r, err := ring.New(n, mod.ChamModuli())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewParams(r, 2, 21)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestNewParamsValidation(t *testing.T) {
	r := ring.MustNew(16, mod.ChamModuli())
	if _, err := NewParams(r, 0, 21); err == nil {
		t.Error("normalLevels=0 accepted")
	}
	if _, err := NewParams(r, 4, 21); err == nil {
		t.Error("normalLevels>levels accepted")
	}
	if _, err := NewParams(r, 2, 0); err == nil {
		t.Error("eta=0 accepted")
	}
	if _, err := NewParams(r, 2, 33); err == nil {
		t.Error("eta=33 accepted (CBDPoly reads two eta-bit fields of one word)")
	}
	if _, err := NewParams(r, 2, 32); err != nil {
		t.Errorf("eta=32 rejected: %v", err)
	}
	p, err := NewParams(r, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	if p.HasSpecialModulus() {
		t.Error("full-basis params should have no special modulus")
	}
}

func TestSpecialModuli(t *testing.T) {
	p := testParams(t, 16)
	sp := p.SpecialModuli()
	if len(sp) != 1 || sp[0] != mod.ChamP {
		t.Fatalf("SpecialModuli = %v, want [%d]", sp, uint64(mod.ChamP))
	}
}

// TestEncryptZeroPhaseIsSmall: the phase of a fresh encryption of zero must
// be bounded by the noise distribution.
func TestEncryptZeroPhaseIsSmall(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	for _, levels := range []int{2, 3} {
		ct := p.EncryptZeroSym(rng, sk, levels)
		if ct.IsNTT() {
			t.Fatal("fresh ciphertext should be in coefficient domain")
		}
		if bits := p.NoiseBits(ct, sk, nil); bits > 12 {
			t.Errorf("levels=%d: fresh symmetric noise %f bits, want small", levels, bits)
		}
	}
	pk := p.PublicKeyGen(rng, sk)
	ct := p.EncryptZeroPK(rng, pk, 3)
	if bits := p.NoiseBits(ct, sk, nil); bits > 16 {
		t.Errorf("fresh public-key noise %f bits, want small", bits)
	}
}

// TestPhasePayload: adding a payload into b must surface in the phase.
func TestPhasePayload(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ct := p.EncryptZeroSym(rng, sk, 2)

	payload := make([]*big.Int, p.R.N)
	vals := p.R.NewPoly(2)
	centered := make([]int64, p.R.N)
	for i := range centered {
		centered[i] = int64(i*977) % 100000
		payload[i] = big.NewInt(centered[i])
	}
	p.R.SetCentered(vals, centered)
	p.R.Add(ct.B, ct.B, vals)

	if bits := p.NoiseBits(ct, sk, payload); bits > 12 {
		t.Errorf("payload not recovered: residual %f bits", bits)
	}
	// And against the wrong payload it must NOT match.
	if bits := p.NoiseBits(ct, sk, nil); bits < 12 {
		t.Errorf("phase unexpectedly small without payload: %f bits", bits)
	}
}

// TestSecretKeyMontImage: the phase through the key's Montgomery image of
// −s is the word a plain MulCoeff by the secret gives, at every level
// count and with b on either side of the transform; a key KeyGen did not
// build is refused by name by every product with the secret.
func TestSecretKeyMontImage(t *testing.T) {
	p := testParams(t, 64)
	r := p.R
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	for _, levels := range []int{2, 3} {
		ct := p.EncryptZeroSym(rng, sk, levels)
		for _, bNTT := range []bool{false, true} {
			if bNTT {
				r.NTT(ct.B)
			}
			want := ct.A.Copy()
			r.NTT(want)
			r.MulCoeff(want, want, truncate(sk.ValueNTT, levels))
			if bNTT {
				r.Add(want, want, ct.B)
				r.INTT(want)
			} else {
				r.INTT(want)
				r.Add(want, want, ct.B)
			}
			if !p.Phase(ct, sk).Equal(want) {
				t.Fatalf("levels=%d, b in NTT=%v: phase differs from the Barrett product", levels, bNTT)
			}
		}
	}

	bare := &SecretKey{Value: sk.Value, ValueNTT: sk.ValueNTT}
	ct := p.EncryptZeroSym(rng, sk, 2)
	for name, use := range map[string]func(){
		"EncryptZeroSym":  func() { p.EncryptZeroSym(rng, bare, 2) },
		"Phase":           func() { p.Phase(ct, bare) },
		"PublicKeyGen":    func() { p.PublicKeyGen(rng, bare) },
		"SwitchingKeyGen": func() { p.SwitchingKeyGen(rng, bare, sk.Value) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "rlwe: SecretKey not built by KeyGen (no Montgomery image)" {
					t.Fatalf("%s on a bare key: recovered %q, want the KeyGen invariant panic", name, msg)
				}
			}()
			use()
		}()
	}
}

func TestAddSubHomomorphism(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	mk := func(seed int64) (*Ciphertext, []*big.Int) {
		ct := p.EncryptZeroSym(rng, sk, 2)
		vals := make([]int64, p.R.N)
		r2 := rand.New(rand.NewSource(seed))
		for i := range vals {
			vals[i] = int64(r2.Intn(1 << 20))
		}
		pl := p.R.NewPoly(2)
		p.R.SetCentered(pl, vals)
		p.R.Add(ct.B, ct.B, pl)
		bigs := make([]*big.Int, len(vals))
		for i, v := range vals {
			bigs[i] = big.NewInt(v)
		}
		return ct, bigs
	}
	ct0, m0 := mk(10)
	ct1, m1 := mk(11)

	sum := &Ciphertext{B: p.R.NewPoly(2), A: p.R.NewPoly(2)}
	p.Add(sum, ct0, ct1)
	wantSum := make([]*big.Int, len(m0))
	for i := range m0 {
		wantSum[i] = new(big.Int).Add(m0[i], m1[i])
	}
	if bits := p.NoiseBits(sum, sk, wantSum); bits > 13 {
		t.Errorf("Add: residual %f bits", bits)
	}
}

// TestKeySwitchRoundTrip: encrypt under sk2, switch to sk1, verify the
// phase is preserved up to small noise.
func TestKeySwitchRoundTrip(t *testing.T) {
	p := testParams(t, 256)
	rng := testutil.NewRand(t)
	sk1 := p.KeyGen(rng)
	sk2 := p.KeyGen(rng)

	// Ciphertext under sk2 with an embedded payload.
	pOther := p
	ctUnder2 := pOther.EncryptZeroSym(rng, sk2, 2)
	vals := make([]int64, p.R.N)
	for i := range vals {
		vals[i] = int64((i*31 + 7) % (1 << 22))
	}
	pl := p.R.NewPoly(2)
	p.R.SetCentered(pl, vals)
	p.R.Add(ctUnder2.B, ctUnder2.B, pl)
	want := make([]*big.Int, len(vals))
	for i, v := range vals {
		want[i] = big.NewInt(v)
	}

	swk := p.SwitchingKeyGen(rng, sk1, sk2.Value)
	ctUnder1 := p.KeySwitch(ctUnder2, swk)

	if bits := p.NoiseBits(ctUnder1, sk1, want); bits > 30 {
		t.Errorf("key switch residual %f bits (budget ~51)", bits)
	}
	// Sanity: it must NOT decrypt under the old key.
	if bits := p.NoiseBits(ctUnder1, sk2, want); bits < 40 {
		t.Errorf("switched ciphertext still decrypts under source key (%f bits)", bits)
	}
}

// TestAutomorphCt: applying X->X^k homomorphically must act on the payload
// polynomial exactly as ring.Automorph does.
func TestAutomorphCt(t *testing.T) {
	p := testParams(t, 256)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	ct := p.EncryptZeroSym(rng, sk, 2)
	vals := make([]int64, p.R.N)
	for i := range vals {
		vals[i] = int64(i % 1024)
	}
	pl := p.R.NewPoly(2)
	p.R.SetCentered(pl, vals)
	p.R.Add(ct.B, ct.B, pl)

	ctK := &Ciphertext{B: p.R.NewPoly(2), A: p.R.NewPoly(2)}
	for _, k := range []int{3, p.R.N + 1, 2*p.R.N - 1} {
		swk := p.AutomorphismKeyGen(rng, sk, k)
		p.AutomorphCtInto(ctK, ct, k, swk)

		phiPl := p.R.NewPoly(2)
		p.R.Automorph(phiPl, pl, k)
		want := p.R.ToBigIntCentered(phiPl, 2)
		if bits := p.NoiseBits(ctK, sk, want); bits > 30 {
			t.Errorf("k=%d: automorphism residual %f bits", k, bits)
		}
	}
}

func TestKeySwitchGuards(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	swk := p.SwitchingKeyGen(rng, sk, sk.Value)

	augmented := p.EncryptZeroSym(rng, sk, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KeySwitch accepted augmented ciphertext")
			}
		}()
		p.KeySwitch(augmented, swk)
	}()

	nttCt := p.EncryptZeroSym(rng, sk, 2)
	p.R.NTT(nttCt.B)
	p.R.NTT(nttCt.A)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KeySwitch accepted NTT-domain ciphertext")
			}
		}()
		p.KeySwitch(nttCt, swk)
	}()

	rFull := ring.MustNew(16, mod.ChamModuli())
	pFull, _ := NewParams(rFull, 3, 21)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SwitchingKeyGen without special modulus accepted")
			}
		}()
		pFull.SwitchingKeyGen(rng, sk, sk.Value)
	}()
}

// rescale is RESCALE as the pipeline runs it: each part of the augmented
// coefficient-domain ciphertext ct is transformed, then leaves the NTT
// domain through the inverse that divides the special limbs out
// (ring.INTTModDownTo). ct is left intact.
func rescale(p Params, ct *Ciphertext) *Ciphertext {
	out := &Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	for _, part := range [][2]*ring.Poly{{out.B, ct.B}, {out.A, ct.A}} {
		x := part[1].Copy()
		p.R.NTT(x)
		p.R.INTTModDownTo(part[0], x)
	}
	return out
}

// TestRescaleDividesPayload: an augmented ciphertext carrying payload P·m
// must, after RESCALE, carry payload ≈ m.
func TestRescaleDividesPayload(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	ct := p.EncryptZeroSym(rng, sk, 3)
	vals := make([]int64, p.R.N)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	pl := p.R.NewPoly(3)
	p.R.SetCentered(pl, vals)
	pBig := new(big.Int).SetUint64(mod.ChamP)
	p.R.MulScalarBig(pl, pl, pBig)
	p.R.Add(ct.B, ct.B, pl)

	rescaled := rescale(p, ct)
	if rescaled.Levels() != 2 {
		t.Fatalf("rescaled levels = %d, want 2", rescaled.Levels())
	}
	want := make([]*big.Int, len(vals))
	for i, v := range vals {
		want[i] = big.NewInt(v)
	}
	// Noise was ~e before; now ~e/P + rounding, i.e. essentially gone.
	if bits := p.NoiseBits(rescaled, sk, want); bits > 3 {
		t.Errorf("rescale residual %f bits", bits)
	}
}

func TestCiphertextCopy(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ct := p.EncryptZeroSym(rng, sk, 2)
	cp := ct.Copy()
	cp.B.Coeffs[0][0] ^= 1
	if ct.B.Coeffs[0][0] == cp.B.Coeffs[0][0] {
		t.Error("Copy aliases the original")
	}
	if ct.Levels() != 2 || cp.Levels() != 2 {
		t.Error("levels wrong")
	}
}

// TestMulPlainNTT: multiplying an encryption of m by plaintext u must give
// an encryption of m·u (ring product), with noise scaled by |u|·N.
func TestMulPlainNTT(t *testing.T) {
	p := testParams(t, 256)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	ct := p.EncryptZeroSym(rng, sk, 3)
	msg := make([]int64, p.R.N)
	for i := range msg {
		msg[i] = int64(i%251) << 30 // sizeable payload so noise stays relatively small
	}
	pl := p.R.NewPoly(3)
	p.R.SetCentered(pl, msg)
	p.R.Add(ct.B, ct.B, pl)

	// Small plaintext multiplier u.
	uVals := make([]int64, p.R.N)
	for i := range uVals {
		uVals[i] = int64(i % 17)
	}
	u := p.R.NewPoly(3)
	p.R.SetCentered(u, uVals)
	uNTT := u.Copy()
	p.R.NTT(uNTT)

	ctN := ct.Copy()
	p.R.NTT(ctN.B)
	p.R.NTT(ctN.A)
	out := &Ciphertext{B: p.R.NewPoly(3), A: p.R.NewPoly(3)}
	p.MulPlainNTT(out, ctN, uNTT)
	p.R.INTT(out.B)
	p.R.INTT(out.A)

	// Expected payload: ring product pl·u over the integers mod Q.
	prod := p.R.NewPoly(3)
	p.R.MulPoly(prod, pl, u)
	want := p.R.ToBigIntCentered(prod, 3)
	// Noise grew to ~|u|·N·e ≈ 17·256·21 ≈ 2^17.
	if bits := p.NoiseBits(out, sk, want); bits > 22 {
		t.Errorf("MulPlain residual %f bits", bits)
	}
}

// TestMultiSpecialLimbChain exercises the generic-parameter path the CHAM
// set never hits: a 5-limb chain with TWO special moduli. RESCALE must
// drop both, and key switching must divide by their product.
func TestMultiSpecialLimbChain(t *testing.T) {
	primes, err := mod.NTTFriendlyPrimes(30, 128, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(128, primes)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(r, 3, 21) // 3 normal + 2 special limbs
	if err != nil {
		t.Fatal(err)
	}
	if len(p.SpecialModuli()) != 2 {
		t.Fatalf("%d special limbs", len(p.SpecialModuli()))
	}
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	// RESCALE: payload P·m over the full basis comes back as ≈ m.
	ct := p.EncryptZeroSym(rng, sk, 5)
	vals := make([]int64, r.N)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	pl := r.NewPoly(5)
	r.SetCentered(pl, vals)
	pBig := new(big.Int).SetUint64(primes[3])
	pBig.Mul(pBig, new(big.Int).SetUint64(primes[4]))
	r.MulScalarBig(pl, pl, pBig)
	r.Add(ct.B, ct.B, pl)
	rescaled := rescale(p, ct)
	if rescaled.Levels() != 3 {
		t.Fatalf("rescaled to %d limbs, want 3", rescaled.Levels())
	}
	want := make([]*big.Int, len(vals))
	for i, v := range vals {
		want[i] = big.NewInt(v)
	}
	if bits := p.NoiseBits(rescaled, sk, want); bits > 4 {
		t.Errorf("two-limb rescale residual %f bits", bits)
	}

	// Key switching across the 2-special-limb basis.
	sk2 := p.KeyGen(rng)
	swk := p.SwitchingKeyGen(rng, sk, sk2.Value)
	ct2 := p.EncryptZeroSym(rng, sk2, 3)
	r.Add(ct2.B, ct2.B, truncate(plFromInts(p, vals), 3))
	switched := p.KeySwitch(ct2, swk)
	if bits := p.NoiseBits(switched, sk, want); bits > 25 {
		t.Errorf("two-limb key-switch residual %f bits", bits)
	}
}

// plFromInts builds a full-basis payload polynomial from centred ints.
func plFromInts(p Params, vals []int64) *ring.Poly {
	pl := p.R.NewPoly(p.R.Levels())
	p.R.SetCentered(pl, vals)
	return pl
}
