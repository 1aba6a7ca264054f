package bfv

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestEncodeVector(t *testing.T) {
	p := testParams(t, 64)
	v := []uint64{1, 2, 3, p.T.Q + 5} // last value must reduce mod t
	pt := p.EncodeVector(v)
	if pt.Coeffs[0] != 1 || pt.Coeffs[3] != 5 {
		t.Fatalf("EncodeVector wrong: %v", pt.Coeffs[:4])
	}
	for i := 4; i < p.R.N; i++ {
		if pt.Coeffs[i] != 0 {
			t.Fatal("padding not zero")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized vector accepted")
		}
	}()
	p.EncodeVector(make([]uint64, p.R.N+1))
}

func TestEncodeRowLayout(t *testing.T) {
	p := testParams(t, 16)
	a := []uint64{10, 20, 30}
	pt := p.EncodeRow(a, 1)
	if pt.Coeffs[0] != 10 {
		t.Errorf("constant coefficient %d, want 10", pt.Coeffs[0])
	}
	if pt.Coeffs[p.R.N-1] != p.T.Neg(20) {
		t.Errorf("X^{N-1} coefficient %d, want -20 mod t", pt.Coeffs[p.R.N-1])
	}
	if pt.Coeffs[p.R.N-2] != p.T.Neg(30) {
		t.Errorf("X^{N-2} coefficient %d, want -30 mod t", pt.Coeffs[p.R.N-2])
	}
	// Scale factor folds into every coefficient.
	pt3 := p.EncodeRow(a, 3)
	if pt3.Coeffs[0] != 30 || pt3.Coeffs[p.R.N-1] != p.T.Neg(60) {
		t.Error("scale factor not applied")
	}
}

// TestEncodeRowDotProductIdentity: the plaintext-level product of
// EncodeRow(a) and EncodeVector(v) has constant coefficient a·v (Eq. 2),
// checked for many random vectors without any encryption.
func TestEncodeRowDotProductIdentity(t *testing.T) {
	p := testParams(t, 128)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(p.R.N)
		a := make([]uint64, n)
		v := make([]uint64, n)
		var want uint64
		for j := range a {
			a[j] = rng.Uint64() % p.T.Q
			v[j] = rng.Uint64() % p.T.Q
			want = p.T.Add(want, p.T.Mul(a[j], v[j]))
		}
		conv := bigConv(p, p.EncodeRow(a, 1), p.EncodeVector(v))
		got := p.T.FromCentered(conv[0].Int64() % int64(p.T.Q))
		if got != want {
			t.Fatalf("trial %d (n=%d): constant coefficient %d, want %d", trial, n, got, want)
		}
	}
}

func TestInvPow2(t *testing.T) {
	p := testParams(t, 16)
	for l := 0; l <= 16; l++ {
		inv := p.InvPow2(l)
		if p.T.Mul(inv, p.T.Pow(2, uint64(l))) != 1 {
			t.Errorf("InvPow2(%d) wrong", l)
		}
	}
}

func TestSlotsRoundTrip(t *testing.T) {
	p := testParams(t, 64)
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, p.R.N)
	for i := range vals {
		vals[i] = rng.Uint64() % p.T.Q
	}
	pt, err := p.EncodeSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.DecodeSlots(pt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("slot %d: %d != %d", i, back[i], vals[i])
		}
	}
}

// TestSlotsAreComponentwise: multiplying two slot-encoded plaintexts as
// ring elements multiplies slots componentwise — the SIMD property.
func TestSlotsAreComponentwise(t *testing.T) {
	p := testParams(t, 64)
	rng := rand.New(rand.NewSource(8))
	va := make([]uint64, p.R.N)
	vb := make([]uint64, p.R.N)
	for i := range va {
		va[i] = rng.Uint64() % p.T.Q
		vb[i] = rng.Uint64() % p.T.Q
	}
	pa, _ := p.EncodeSlots(va)
	pb, _ := p.EncodeSlots(vb)

	// Ring product mod t via the slot table's convolution theorem.
	prod := make([]uint64, p.R.N)
	copy(prod, pa.Coeffs)
	fb := make([]uint64, p.R.N)
	copy(fb, pb.Coeffs)
	p.slotTable.ForwardLazy(prod)
	p.slotTable.ForwardLazy(fb)
	for i := range prod {
		prod[i] = p.T.Mul(prod[i], fb[i])
	}
	p.slotTable.InverseLazy(prod)

	slots, _ := p.DecodeSlots(&Plaintext{Coeffs: prod})
	for i := range slots {
		if slots[i] != p.T.Mul(va[i], vb[i]) {
			t.Fatalf("slot %d not componentwise", i)
		}
	}
}

// slotAutomorphismPermutation predicts the slot permutation induced by the
// ring automorphism X -> X^k (odd k): perm[j] is the slot index whose value
// moves INTO slot j. Derivation: slot j evaluates at e_j = ψ^(2·brv(j)+1),
// and φ_k(pt)(e_j) = pt(e_j^k), so slot j of φ_k(pt) holds the old slot j'
// with 2·brv(j')+1 ≡ (2·brv(j)+1)·k (mod 2N).
func slotAutomorphismPermutation(p Params, k int) []int {
	n, logN := p.R.N, p.slotTable.LogN
	brv := func(x int) int { return int(bits.Reverse64(uint64(x)) >> (64 - logN)) }
	kk := ((k % (2 * n)) + 2*n) % (2 * n)
	// invExp[e] = slot index whose evaluation exponent is e.
	invExp := make(map[int]int, n)
	for j := 0; j < n; j++ {
		invExp[2*brv(j)+1] = j
	}
	perm := make([]int, n)
	for j := range perm {
		perm[j] = invExp[(2*brv(j)+1)*kk%(2*n)]
	}
	return perm
}

// TestSlotAutomorphismPermutation: applying a ring automorphism to a
// slot-encoded plaintext must permute slots exactly as predicted.
func TestSlotAutomorphismPermutation(t *testing.T) {
	p := testParams(t, 64)
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint64, p.R.N)
	for i := range vals {
		vals[i] = rng.Uint64() % p.T.Q
	}
	pt, _ := p.EncodeSlots(vals)

	for _, k := range []int{3, 5, 25, 2*p.R.N - 1} {
		perm := slotAutomorphismPermutation(p, k)
		// Apply the automorphism to the plaintext coefficients mod t.
		lift := p.Lift(pt, 1)
		phi := p.R.NewPoly(1)
		p.R.Automorph(phi, lift, k)
		// Read back mod t.
		phiPt := p.NewPlaintext()
		for i := 0; i < p.R.N; i++ {
			phiPt.Coeffs[i] = p.T.FromCentered(p.R.Moduli[0].CenterLift(phi.Coeffs[0][i]))
		}
		got, _ := p.DecodeSlots(phiPt)
		for j := range got {
			if got[j] != vals[perm[j]] {
				t.Fatalf("k=%d: slot %d = %d, want vals[%d] = %d", k, j, got[j], perm[j], vals[perm[j]])
			}
		}
	}
}
