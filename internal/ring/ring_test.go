package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"cham/internal/mod"
	"cham/internal/testutil"
)

// chamRing returns the production ring {q0,q1,p} at a reduced degree for
// fast tests (all properties are degree-independent).
func chamRing(tb testing.TB, n int) *Ring {
	tb.Helper()
	r, err := New(n, mod.ChamModuli())
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func randPoly(r *Ring, rng *rand.Rand, levels int) *Poly {
	p := r.NewPoly(levels)
	r.UniformPoly(rng, p)
	return p
}

func TestNewRejectsBadBases(t *testing.T) {
	if _, err := New(64, nil); err == nil {
		t.Error("empty basis accepted")
	}
	if _, err := New(64, []uint64{mod.ChamQ0, mod.ChamQ0}); err == nil {
		t.Error("duplicate modulus accepted")
	}
	if _, err := New(64, []uint64{97}); err == nil {
		t.Error("non-NTT-friendly modulus accepted")
	}
}

func TestNewPolyBounds(t *testing.T) {
	r := chamRing(t, 16)
	for _, lv := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoly(%d) did not panic", lv)
				}
			}()
			r.NewPoly(lv)
		}()
	}
	if p := r.NewPoly(2); p.Levels() != 2 {
		t.Error("levels mismatch")
	}
}

func TestCopyEqualZero(t *testing.T) {
	r := chamRing(t, 32)
	rng := testutil.NewRand(t)
	p := randPoly(r, rng, 3)
	q := p.Copy()
	if !p.Equal(q) {
		t.Fatal("copy not equal")
	}
	q.Coeffs[1][5]++
	if p.Equal(q) {
		t.Fatal("mutated copy still equal")
	}
	q.Zero()
	for l := range q.Coeffs {
		for _, v := range q.Coeffs[l] {
			if v != 0 {
				t.Fatal("Zero left residue")
			}
		}
	}
	// Domain flag mismatch must break equality.
	q2 := p.Copy()
	q2.IsNTT = true
	if p.Equal(q2) {
		t.Fatal("domain mismatch ignored by Equal")
	}
}

func TestAddSubNegBig(t *testing.T) {
	r := chamRing(t, 32)
	rng := testutil.NewRand(t)
	a, b := randPoly(r, rng, 3), randPoly(r, rng, 3)
	q := r.Modulus(3)

	sum, diff, neg := r.NewPoly(3), r.NewPoly(3), r.NewPoly(3)
	r.Add(sum, a, b)
	r.Sub(diff, a, b)
	r.Neg(neg, a)

	ab, bb := r.ToBigIntCentered(a, 3), r.ToBigIntCentered(b, 3)
	sb, db, nb := r.ToBigIntCentered(sum, 3), r.ToBigIntCentered(diff, 3), r.ToBigIntCentered(neg, 3)
	tmp := new(big.Int)
	for i := 0; i < r.N; i++ {
		if tmp.Sub(sb[i], tmp.Add(ab[i], bb[i])).Mod(tmp, q).Sign() != 0 {
			t.Fatalf("Add wrong at %d", i)
		}
		if tmp.Sub(db[i], tmp.Sub(ab[i], bb[i])).Mod(tmp, q).Sign() != 0 {
			t.Fatalf("Sub wrong at %d", i)
		}
		if tmp.Add(nb[i], ab[i]).Mod(tmp, q).Sign() != 0 {
			t.Fatalf("Neg wrong at %d", i)
		}
	}
}

func TestLevelAndDomainMismatchPanics(t *testing.T) {
	r := chamRing(t, 16)
	a, b := r.NewPoly(2), r.NewPoly(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("level mismatch not caught")
			}
		}()
		r.Add(r.NewPoly(2), a, b)
	}()
	c := r.NewPoly(2)
	c.IsNTT = true
	func() {
		defer func() {
			if recover() == nil {
				t.Error("domain mismatch not caught")
			}
		}()
		r.Add(r.NewPoly(2), a, c)
	}()
}

func TestMulPolyMatchesNaivePerLimb(t *testing.T) {
	r := chamRing(t, 64)
	rng := testutil.NewRand(t)
	a, b := randPoly(r, rng, 3), randPoly(r, rng, 3)
	out := r.NewPoly(3)
	r.MulPoly(out, a, b)
	for l := 0; l < 3; l++ {
		want := testutil.SchoolbookMul(r.Moduli[l].Q, a.Coeffs[l], b.Coeffs[l])
		for i := range want {
			if out.Coeffs[l][i] != want[i] {
				t.Fatalf("limb %d: product differs at %d", l, i)
			}
		}
	}
}

func TestNTTRoundTripAndCG(t *testing.T) {
	r := chamRing(t, 128)
	rng := testutil.NewRand(t)
	a := randPoly(r, rng, 3)
	b := a.Copy()
	r.NTT(b)
	if !b.IsNTT {
		t.Fatal("flag not set")
	}
	// The constant-geometry dataflow (Alg. 4) lands on the same rows.
	cg := a.Copy()
	for l := range cg.Coeffs {
		r.Tables[l].ForwardCG(cg.Coeffs[l], cg.Coeffs[l])
	}
	cg.IsNTT = true
	if !b.Equal(cg) {
		t.Fatal("ForwardCG differs from NTT")
	}
	for l := range cg.Coeffs {
		r.Tables[l].InverseCG(cg.Coeffs[l], cg.Coeffs[l])
	}
	cg.IsNTT = false
	r.INTT(b)
	if !b.Equal(a) || !cg.Equal(a) {
		t.Fatal("round trip failed")
	}
}

func TestNTTDomainGuards(t *testing.T) {
	r := chamRing(t, 16)
	p := r.NewPoly(2)
	r.NTT(p)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double NTT not caught")
			}
		}()
		r.NTT(p)
	}()
	r.INTT(p)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double INTT not caught")
			}
		}()
		r.INTT(p)
	}()
}

func TestMulScalarBig(t *testing.T) {
	r := chamRing(t, 32)
	rng := testutil.NewRand(t)
	a := randPoly(r, rng, 2)
	c := new(big.Int).Lsh(big.NewInt(123456789), 30) // larger than any limb
	out := r.NewPoly(2)
	r.MulScalarBig(out, a, c)
	q := r.Modulus(2)
	ab, ob := r.ToBigIntCentered(a, 2), r.ToBigIntCentered(out, 2)
	tmp := new(big.Int)
	for i := range ab {
		want := tmp.Mul(ab[i], c)
		want.Sub(ob[i], want)
		if want.Mod(want, q).Sign() != 0 {
			t.Fatalf("MulScalarBig wrong at %d", i)
		}
	}
}

func TestSetCenteredAndToBigRoundTrip(t *testing.T) {
	r := chamRing(t, 16)
	vals := []int64{0, 1, -1, 7, -300, 65536, -65537}
	p := r.NewPoly(3)
	r.SetCentered(p, vals)
	got := r.ToBigIntCentered(p, 3)
	for i, v := range vals {
		if got[i].Int64() != v {
			t.Errorf("coefficient %d: got %v want %d", i, got[i], v)
		}
	}
	for i := len(vals); i < r.N; i++ {
		if got[i].Sign() != 0 {
			t.Errorf("padding coefficient %d non-zero", i)
		}
	}
}

func TestSampling(t *testing.T) {
	r := chamRing(t, 1024)
	rng := testutil.NewRand(t)

	s := r.NewPoly(3)
	r.TernaryPoly(rng, s)
	counts := map[int64]int{}
	for i := 0; i < r.N; i++ {
		v := r.Moduli[0].CenterLift(s.Coeffs[0][i])
		if v < -1 || v > 1 {
			t.Fatalf("ternary coefficient %d out of range", v)
		}
		counts[v]++
		// All limbs must encode the same centred value.
		for l := 1; l < 3; l++ {
			if r.Moduli[l].CenterLift(s.Coeffs[l][i]) != v {
				t.Fatal("limbs disagree")
			}
		}
	}
	for v := int64(-1); v <= 1; v++ {
		if counts[v] < r.N/6 {
			t.Errorf("ternary value %d badly underrepresented: %d/%d", v, counts[v], r.N)
		}
	}

	e := r.NewPoly(3)
	const eta = 21
	r.CBDPoly(rng, e, eta)
	var sum, sumSq float64
	for i := 0; i < r.N; i++ {
		v := float64(r.Moduli[0].CenterLift(e.Coeffs[0][i]))
		if v < -eta || v > eta {
			t.Fatalf("CBD coefficient %f out of range", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(r.N)
	variance := sumSq/float64(r.N) - mean*mean
	if mean > 0.5 || mean < -0.5 {
		t.Errorf("CBD mean %f too far from 0", mean)
	}
	// Var = eta/2 = 10.5; allow generous slack.
	if variance < 8 || variance > 13.5 {
		t.Errorf("CBD variance %f outside [8,13.5]", variance)
	}
}

func TestModDownIsRoundedDivision(t *testing.T) {
	r := chamRing(t, 64)
	rng := testutil.NewRand(t)
	for trial := 0; trial < 10; trial++ {
		p := randPoly(r, rng, 3)
		down := r.NewPoly(2)
		r.ModDownInto(down, p)
		// The one-limb exit is exactly one ModDownInto, and dropping two
		// limbs is the chain of two.
		to := r.NewPoly(2)
		r.ModDownTo(to, p)
		if !to.Equal(down) {
			t.Fatal("ModDownTo over one limb differs from ModDownInto")
		}
		one, chain := r.NewPoly(1), r.NewPoly(1)
		r.ModDownInto(chain, down)
		r.ModDownTo(one, p)
		if !one.Equal(chain) {
			t.Fatal("ModDownTo over two limbs differs from the ModDownInto chain")
		}
		vals := r.ToBigIntCentered(p, 3)
		got := r.ToBigIntCentered(down, 2)
		sp := new(big.Int).SetUint64(r.Moduli[2].Q)
		q2 := r.Modulus(2)
		tmp, rem := new(big.Int), new(big.Int)
		for i := range vals {
			// want = round(vals[i]/p): |vals[i] - want*p| <= p/2.
			tmp.QuoRem(vals[i], sp, rem)
			want := new(big.Int).Set(tmp)
			twice := new(big.Int).Abs(rem)
			twice.Lsh(twice, 1)
			if twice.Cmp(sp) > 0 { // |rem| > p/2: round away from zero
				if rem.Sign() >= 0 {
					want.Add(want, big.NewInt(1))
				} else {
					want.Sub(want, big.NewInt(1))
				}
			}
			diff := new(big.Int).Sub(got[i], want)
			diff.Mod(diff, q2)
			if diff.Sign() != 0 {
				// Ties (|rem| == p/2) may legitimately round either way.
				if twice.Cmp(sp) != 0 {
					t.Fatalf("trial %d coeff %d: ModDown got %v want %v", trial, i, got[i], want)
				}
			}
		}
	}
}

func TestModGuards(t *testing.T) {
	r := chamRing(t, 16)
	for name, fn := range map[string]func(){
		"ModDownInto on a single limb":   func() { r.ModDownInto(r.NewPoly(1), r.NewPoly(1)) },
		"ModDownInto level mismatch":     func() { r.ModDownInto(r.NewPoly(1), r.NewPoly(3)) },
		"ModDownTo with nothing to drop": func() { r.ModDownTo(r.NewPoly(2), r.NewPoly(2)) },
		"ModDownTo in the NTT domain":    func() { p := r.NewPoly(3); r.NTT(p); r.ModDownTo(r.NewPoly(2), p) },
		"ModDownInto in the NTT domain":  func() { p := r.NewPoly(2); r.NTT(p); r.ModDownInto(r.NewPoly(1), p) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s not caught", name)
				}
			}()
			fn()
		}()
	}
}
