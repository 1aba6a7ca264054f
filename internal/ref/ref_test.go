package ref

import (
	"math/big"
	"testing"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/mod"
	"cham/internal/ntt"
	"cham/internal/ring"
	"cham/internal/testutil"
)

func testParams(tb testing.TB, n int) bfv.Params {
	tb.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func moduliOf(r *ring.Ring) []uint64 {
	out := make([]uint64, r.Levels())
	for l, m := range r.Moduli {
		out[l] = m.Q
	}
	return out
}

// TestComposeDecomposeRoundTrip: Compose must invert Decompose and agree
// with the ring's own CRT reconstruction.
func TestComposeDecomposeRoundTrip(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	r := ring.MustNew(32, mod.ChamModuli())
	ms := moduliOf(r)
	for trial := 0; trial < 10; trial++ {
		p := r.NewPoly(r.Levels())
		r.UniformPoly(rng, p)
		big := Compose(p, ms)
		if !big.MatchesRNS(p, ms) {
			t.Fatal("Decompose(Compose(p)) != p")
		}
		// Cross-check against ring.ToBigIntCentered.
		cent := r.ToBigIntCentered(p, r.Levels())
		for i := range cent {
			if big.Centered(i).Cmp(cent[i]) != 0 {
				t.Fatalf("coeff %d: ref centred %v, ring centred %v", i, big.Centered(i), cent[i])
			}
		}
	}
}

// TestNegacyclicMulMatchesRing: the big.Int schoolbook product must match
// both the NTT-based ring product and the per-limb uint64 schoolbook.
func TestNegacyclicMulMatchesRing(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	r := ring.MustNew(32, mod.ChamModuli())
	ms := moduliOf(r)
	for trial := 0; trial < 10; trial++ {
		a := r.NewPoly(r.Levels())
		b := r.NewPoly(r.Levels())
		r.UniformPoly(rng, a)
		r.UniformPoly(rng, b)
		out := r.NewPoly(r.Levels())
		r.MulPoly(out, a, b)
		got := Compose(a, ms).Mul(Compose(b, ms))
		if !got.MatchesRNS(out, ms) {
			t.Fatalf("trial %d: big.Int product differs from ring.MulPoly", trial)
		}
		for l := range ms {
			naive := testutil.SchoolbookMul(ms[l], a.Coeffs[l], b.Coeffs[l])
			rows := Decompose(got, ms)
			for i := range naive {
				if naive[i] != rows[l][i] {
					t.Fatalf("trial %d limb %d coeff %d: naive %d, ref %d", trial, l, i, naive[i], rows[l][i])
				}
			}
		}
	}
}

// TestMulKroneckerMatchesSchoolbook: the Kronecker-substitution fast path
// must agree with the plain schoolbook loop on dense random operands, at
// sizes on both sides of the dispatch threshold.
func TestMulKroneckerMatchesSchoolbook(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	r := ring.MustNew(32, mod.ChamModuli())
	ms := moduliOf(r)
	q := ModulusProduct(ms)
	for _, n := range []int{4, 32, 128} {
		for trial := 0; trial < 5; trial++ {
			a := NewPoly(n, q)
			b := NewPoly(n, q)
			for i := 0; i < n; i++ {
				a.Coeffs[i].Rand(rng, q)
				b.Coeffs[i].Rand(rng, q)
			}
			school := a.Mul(b) // below threshold: schoolbook path
			kron := a.mulKronecker(b)
			if !school.Equal(kron) {
				t.Fatalf("n=%d trial %d: Kronecker product differs from schoolbook", n, trial)
			}
		}
	}
}

// TestDFTMatchesTable: ForwardDFT/InverseDFT must agree with the
// production transform bit for bit (FuzzNTTRoundTrip in package ntt adds
// the constant-geometry one).
func TestDFTMatchesTable(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	for _, n := range []int{4, 16, 64} {
		for _, q := range mod.ChamModuli() {
			tb := ntt.MustTable(n, q)
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() % q
			}
			want := ForwardDFT(a, q, tb.Psi)
			got := append([]uint64(nil), a...)
			tb.ForwardLazy(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("N=%d q=%d: ForwardLazy[%d]=%d, DFT=%d", n, q, i, got[i], want[i])
				}
			}
			back := InverseDFT(want, q, tb.Psi)
			for i := range back {
				if back[i] != a[i] {
					t.Fatalf("N=%d q=%d: InverseDFT[%d]=%d, want %d", n, q, i, back[i], a[i])
				}
			}
		}
	}
}

// TestModDownMatchesRing: the exact rounding division must match the RNS
// RESCALE limb formula.
func TestModDownMatchesRing(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	r := ring.MustNew(32, mod.ChamModuli())
	ms := moduliOf(r)
	for trial := 0; trial < 10; trial++ {
		p := r.NewPoly(r.Levels())
		r.UniformPoly(rng, p)
		want := r.NewPoly(r.Levels() - 1)
		r.ModDownInto(want, p)
		got := ModDown(Compose(p, ms), ms)
		if !got.MatchesRNS(want, ms[:len(ms)-1]) {
			t.Fatalf("trial %d: ref ModDown differs from ring.ModDownInto", trial)
		}
	}
}

// TestKeySwitchMatchesRlwe: the digit-decomposed big.Int key switch must
// reproduce rlwe.KeySwitch exactly, including the Shoup fast path.
func TestKeySwitchMatchesRlwe(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	p := testParams(t, 32)
	ms := moduliOf(p.R)
	sk := p.KeyGen(rng)
	sk2 := p.KeyGen(rng)
	swk := p.SwitchingKeyGen(rng, sk, sk2.Value)
	refKey := ComposeSwitchingKey(p.R, swk, ms)
	for trial := 0; trial < 4; trial++ {
		ct := p.Encrypt(rng, sk2, p.EncodeVector(testutil.Vector(rng, p.R.N, p.T.Q)), p.NormalLevels)
		want := p.KeySwitch(ct, swk)
		b, a := KeySwitch(Compose(ct.A, ms[:p.NormalLevels]), refKey, ms, p.NormalLevels)
		got := &Ciphertext{B: b.Add(Compose(ct.B, ms[:p.NormalLevels])), A: a}
		if !got.B.MatchesRNS(want.B, ms[:p.NormalLevels]) || !got.A.MatchesRNS(want.A, ms[:p.NormalLevels]) {
			t.Fatalf("trial %d: ref key switch differs from rlwe.KeySwitch", trial)
		}
	}
}

// TestPackMatchesLwe: extraction and the packing tree must match the
// optimized lwe path ciphertext-for-ciphertext.
func TestPackMatchesLwe(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	p := testParams(t, 32)
	ms := moduliOf(p.R)
	normal := ms[:p.NormalLevels]
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := make(map[int]*SwitchingKey)
	for k, swk := range keys.Keys {
		refKeys[k] = ComposeSwitchingKey(p.R, swk, ms)
	}

	ct := p.Encrypt(rng, sk, p.EncodeVector(testutil.Vector(rng, p.R.N, p.T.Q)), p.NormalLevels)
	refCt := ComposeCiphertext(ct.B, ct.A, normal)

	// Extraction must agree at every index.
	for _, idx := range []int{0, 1, p.R.N / 2, p.R.N - 1} {
		cts := lwe.Extract(p, ct, idx).AsRLWE(p)
		got := ExtractAsRLWE(refCt, idx)
		if !got.A.MatchesRNS(cts.A, normal) {
			t.Fatalf("extract idx %d: A-part differs", idx)
		}
		// AsRLWE keeps only beta at coefficient 0, same as the fused form.
		if got.B.Coeffs[0].Cmp(Compose(cts.B, normal).Coeffs[0]) != 0 {
			t.Fatalf("extract idx %d: beta differs", idx)
		}
	}

	// Full tree: pack 8 extractions both ways.
	var optimized []*lwe.Ciphertext
	var reference []*Ciphertext
	for i := 0; i < 8; i++ {
		optimized = append(optimized, lwe.Extract(p, ct, i))
		reference = append(reference, ExtractAsRLWE(refCt, i))
	}
	want, err := lwe.PackLWEs(p, optimized, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PackCiphertexts(reference, refKeys, ms, p.NormalLevels)
	if err != nil {
		t.Fatal(err)
	}
	if !got.B.MatchesRNS(want.B, normal) || !got.A.MatchesRNS(want.A, normal) {
		t.Fatal("ref packing tree differs from lwe.PackLWEs")
	}
}

// TestHMVPMatchesCore: the end-to-end reference HMVP must match
// core.MatVec bit for bit and decrypt to the cleartext product, at several
// small dense shapes.
func TestHMVPMatchesCore(t *testing.T) {
	t.Parallel()
	rng := testutil.NewRand(t)
	p := testParams(t, 32)
	sk := p.KeyGen(rng)
	ev, err := core.NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := Keys(p, ev.Keys)
	for _, s := range []struct{ m, n int }{{1, 32}, {2, 20}, {3, 40}, {5, 70}} {
		A := testutil.Matrix(rng, s.m, s.n, p.T.Q)
		v := testutil.Vector(rng, s.n, p.T.Q)
		ctV := core.EncryptVector(p, rng, sk, v)
		res, err := ev.MatVec(A, ctV)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := HMVP(p, A, ctV, refKeys)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.MatchesResult(p, res.Packed); err != nil {
			t.Fatalf("%dx%d: %v", s.m, s.n, err)
		}
		want := core.PlainMatVec(p, A, v)
		got := tr.DecryptResult(p, sk)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d row %d: ref decrypts %d, want %d", s.m, s.n, i, got[i], want[i])
			}
		}
	}
}

// TestRoundToT pins the decryption rounding convention on hand-computed
// values.
func TestRoundToT(t *testing.T) {
	t.Parallel()
	q := big.NewInt(1000)
	if got := RoundToT(big.NewInt(300), q, 10); got != 3 {
		t.Fatalf("RoundToT(300/1000·10) = %d, want 3", got)
	}
	if got := RoundToT(big.NewInt(-100), q, 10); got != 9 {
		t.Fatalf("RoundToT(-100/1000·10) = %d, want 9", got)
	}
	if got := RoundToT(big.NewInt(349), q, 10); got != 3 {
		t.Fatalf("round-down case = %d, want 3", got)
	}
	if got := RoundToT(big.NewInt(350), q, 10); got != 4 {
		t.Fatalf("round-half-up case = %d, want 4", got)
	}
}

// TestAutomorphNTTMatchesRef: the ring's NTT-slot permutation tables
// (ring.AutomorphNTT, the gather the resident tree runs per merge) must
// agree with the big-integer reference automorphism for every k = 2i+1
// the packing tree uses, at both the test and production ring degrees.
func TestAutomorphNTTMatchesRef(t *testing.T) {
	t.Parallel()
	for _, n := range []int{256, 4096} {
		p := testParams(t, n)
		r := p.R
		ms := moduliOf(r)
		rng := testutil.NewRand(t)
		a := r.NewPoly(r.Levels())
		r.UniformPoly(rng, a)
		want := Compose(a, ms)
		aHat := r.NewPoly(r.Levels())
		aHat.CopyFrom(a)
		r.NTT(aHat)
		got := r.NewPoly(r.Levels())
		for i := 1; i < n; i <<= 1 {
			k := 2*i + 1
			r.AutomorphNTT(got, aHat, k)
			r.INTT(got)
			if !want.Automorph(k).MatchesRNS(got, ms) {
				t.Fatalf("N=%d k=%d: AutomorphNTT differs from ref.Automorph", n, k)
			}
		}
	}
}
