package ring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cham/internal/testutil"
)

func TestRevExplicitAndInvolution(t *testing.T) {
	r := chamRing(t, 16)
	vals := make([]int64, 16)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	p := r.NewPoly(2)
	r.SetCentered(p, vals)
	out := r.NewPoly(2)
	r.Rev(out, p)
	got := r.ToBigIntCentered(out, 2)
	for i := range vals {
		if got[i].Int64() != vals[len(vals)-1-i] {
			t.Fatalf("Rev wrong at %d: %v", i, got[i])
		}
	}
	back := r.NewPoly(2)
	r.Rev(back, out)
	if !back.Equal(p) {
		t.Fatal("Rev is not an involution")
	}
}

// TestShiftNegIsMonomialMul: SHIFTNEG(a, s) must equal a · (-X^s) = a·X^{s-N}.
func TestShiftNegIsMonomialMul(t *testing.T) {
	r := chamRing(t, 32)
	rng := rand.New(rand.NewSource(20))
	a := randPoly(r, rng, 2)
	for _, s := range []int{0, 1, 5, 16, 31} {
		sn := r.NewPoly(2)
		r.ShiftNeg(sn, a, s)
		mm := r.NewPoly(2)
		r.MulMonomial(mm, a, s-r.N)
		if !sn.Equal(mm) {
			t.Fatalf("s=%d: ShiftNeg != MulMonomial(s-N)", s)
		}
	}
	// s=0 is plain negation.
	sn := r.NewPoly(2)
	r.ShiftNeg(sn, a, 0)
	neg := r.NewPoly(2)
	r.Sub(neg, r.NewPoly(2), a)
	if !sn.Equal(neg) {
		t.Fatal("ShiftNeg(a,0) != -a")
	}
}

func TestMulMonomialAgainstNaive(t *testing.T) {
	r := chamRing(t, 16)
	rng := rand.New(rand.NewSource(21))
	a := randPoly(r, rng, 2)
	for _, e := range []int{0, 1, 7, 15, 16, 31, 32, -1, -16, -33} {
		out := r.NewPoly(2)
		r.MulMonomial(out, a, e)
		// Build X^e as a polynomial (reduced into [0,2N)) and compare with
		// the naive negacyclic product on limb 0.
		ee := ((e % (2 * r.N)) + 2*r.N) % (2 * r.N)
		mono := make([]uint64, r.N)
		if ee < r.N {
			mono[ee] = 1
		} else {
			mono[ee-r.N] = r.Moduli[0].Neg(1)
		}
		want := testutil.SchoolbookMul(r.Moduli[0].Q, a.Coeffs[0], mono)
		for i := range want {
			if out.Coeffs[0][i] != want[i] {
				t.Fatalf("e=%d: monomial product differs at %d", e, i)
			}
		}
	}
}

func TestMulMonomialComposition(t *testing.T) {
	r := chamRing(t, 32)
	rng := rand.New(rand.NewSource(22))
	a := randPoly(r, rng, 3)
	f := func(e1, e2 int8) bool {
		t1, t2, t12 := r.NewPoly(3), r.NewPoly(3), r.NewPoly(3)
		r.MulMonomial(t1, a, int(e1))
		r.MulMonomial(t2, t1, int(e2))
		r.MulMonomial(t12, a, int(e1)+int(e2))
		return t2.Equal(t12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// X^N = -1 and X^2N = 1.
	xn, neg := r.NewPoly(3), r.NewPoly(3)
	r.MulMonomial(xn, a, r.N)
	r.Sub(neg, r.NewPoly(3), a)
	if !xn.Equal(neg) {
		t.Error("X^N != -1")
	}
	x2n := r.NewPoly(3)
	r.MulMonomial(x2n, a, 2*r.N)
	if !x2n.Equal(a) {
		t.Error("X^2N != identity")
	}
}

// TestAutomorphIsRingHom: φ_k(a·b) == φ_k(a)·φ_k(b), the defining property
// of a ring automorphism, plus composition and inverse behaviour.
func TestAutomorphIsRingHom(t *testing.T) {
	r := chamRing(t, 32)
	rng := rand.New(rand.NewSource(23))
	a, b := randPoly(r, rng, 2), randPoly(r, rng, 2)
	for _, k := range []int{3, 5, 2*r.N - 1, r.N + 1, 33} {
		ab := r.NewPoly(2)
		r.MulPoly(ab, a, b)
		phiAB := r.NewPoly(2)
		r.Automorph(phiAB, ab, k)

		phiA, phiB := r.NewPoly(2), r.NewPoly(2)
		r.Automorph(phiA, a, k)
		r.Automorph(phiB, b, k)
		prod := r.NewPoly(2)
		r.MulPoly(prod, phiA, phiB)
		if !prod.Equal(phiAB) {
			t.Fatalf("k=%d: automorphism is not multiplicative", k)
		}
	}
}

func TestAutomorphComposition(t *testing.T) {
	r := chamRing(t, 16)
	rng := rand.New(rand.NewSource(24))
	a := randPoly(r, rng, 2)
	k1, k2 := 3, 5
	t1, t2 := r.NewPoly(2), r.NewPoly(2)
	r.Automorph(t1, a, k1)
	r.Automorph(t2, t1, k2)
	direct := r.NewPoly(2)
	r.Automorph(direct, a, k1*k2%(2*r.N))
	if !t2.Equal(direct) {
		t.Fatal("φ_{k2}∘φ_{k1} != φ_{k1·k2}")
	}
}

func TestAutomorphIdentityAndEvenPanics(t *testing.T) {
	r := chamRing(t, 16)
	rng := rand.New(rand.NewSource(25))
	a := randPoly(r, rng, 2)
	id := r.NewPoly(2)
	r.Automorph(id, a, 1)
	if !id.Equal(a) {
		t.Fatal("φ_1 is not the identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("even automorphism index accepted")
		}
	}()
	r.Automorph(id, a, 4)
}

// TestAutomorphismOrbitSize: applying Automorph(·, k) returns to the
// identity after exactly ord(k mod 2N) steps and not before.
func TestAutomorphismOrbitSize(t *testing.T) {
	r := chamRing(t, 16) // 2N = 32
	rng := rand.New(rand.NewSource(26))
	a := randPoly(r, rng, 2)
	// ord(3 mod 32): 3,9,27,81=17,51=19,57=25,75=11,33=1 -> 8.
	for _, c := range []struct{ k, ord int }{{3, 8}, {1, 1}, {2*r.N - 1, 2}} {
		cur := a.Copy()
		for step := 1; step <= c.ord; step++ {
			r.Automorph(cur, cur, c.k)
			if cur.Equal(a) != (step == c.ord) {
				t.Errorf("k=%d: φ^%d(a) == a is %v, want orbit size %d", c.k, step, cur.Equal(a), c.ord)
			}
		}
	}
}

func TestOpsRequireCoeffDomain(t *testing.T) {
	r := chamRing(t, 16)
	p := r.NewPoly(2)
	r.NTT(p)
	out := r.NewPoly(2)
	for name, fn := range map[string]func(){
		"Rev":         func() { r.Rev(out, p) },
		"ShiftNeg":    func() { r.ShiftNeg(out, p, 1) },
		"MulMonomial": func() { r.MulMonomial(out, p, 1) },
		"Automorph":   func() { r.Automorph(out, p, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted NTT-domain input", name)
				}
			}()
			fn()
		}()
	}
}

// TestShiftNegComposition: two SHIFTNEGs compose like monomials:
// ShiftNeg(ShiftNeg(a,s1),s2) = a·(-X^s1)(-X^s2) = a·X^(s1+s2).
func TestShiftNegComposition(t *testing.T) {
	r := chamRing(t, 32)
	rng := rand.New(rand.NewSource(26))
	a := randPoly(r, rng, 2)
	f := func(s1, s2 uint8) bool {
		x, y := int(s1)%r.N, int(s2)%r.N
		t1, t2, want := r.NewPoly(2), r.NewPoly(2), r.NewPoly(2)
		r.ShiftNeg(t1, a, x)
		r.ShiftNeg(t2, t1, y)
		r.MulMonomial(want, a, x+y)
		return t2.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMulPolyRingLaws: commutativity, associativity and distributivity of
// the negacyclic product over the full RNS basis.
func TestMulPolyRingLaws(t *testing.T) {
	r := chamRing(t, 32)
	rng := rand.New(rand.NewSource(27))
	a, b, c := randPoly(r, rng, 3), randPoly(r, rng, 3), randPoly(r, rng, 3)

	ab, ba := r.NewPoly(3), r.NewPoly(3)
	r.MulPoly(ab, a, b)
	r.MulPoly(ba, b, a)
	if !ab.Equal(ba) {
		t.Error("product not commutative")
	}

	abc1, abc2, bc := r.NewPoly(3), r.NewPoly(3), r.NewPoly(3)
	r.MulPoly(abc1, ab, c)
	r.MulPoly(bc, b, c)
	r.MulPoly(abc2, a, bc)
	if !abc1.Equal(abc2) {
		t.Error("product not associative")
	}

	sum, lhs, ac := r.NewPoly(3), r.NewPoly(3), r.NewPoly(3)
	r.Add(sum, b, c)
	r.MulPoly(lhs, a, sum)
	r.MulPoly(ac, a, c)
	rhs := r.NewPoly(3)
	r.Add(rhs, ab, ac)
	if !lhs.Equal(rhs) {
		t.Error("product not distributive over addition")
	}
}
