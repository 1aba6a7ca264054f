package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"cham/internal/mod"
	"cham/internal/testutil"
	"cham/internal/vec"
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

	sum, diff := r.NewPoly(3), r.NewPoly(3)
	r.Add(sum, a, b)
	r.Sub(diff, a, b)

	ab, bb := r.ToBigIntCentered(a, 3), r.ToBigIntCentered(b, 3)
	sb, db := r.ToBigIntCentered(sum, 3), r.ToBigIntCentered(diff, 3)
	tmp := new(big.Int)
	for i := 0; i < r.N; i++ {
		if tmp.Sub(sb[i], tmp.Add(ab[i], bb[i])).Mod(tmp, q).Sign() != 0 {
			t.Fatalf("Add wrong at %d", i)
		}
		if tmp.Sub(db[i], tmp.Sub(ab[i], bb[i])).Mod(tmp, q).Sign() != 0 {
			t.Fatalf("Sub wrong at %d", i)
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

// TestMulCoeffShoupMatchesBarrett: a product through a fixed operand's
// Shoup table, accumulated into two polynomials as the benchmark's MAC
// probe accumulates, is the same word as MulCoeff's then Add, with the
// table built over more limbs than the operands carry.
func TestMulCoeffShoupMatchesBarrett(t *testing.T) {
	r := chamRing(t, 64)
	rng := testutil.NewRand(t)
	b := randPoly(r, rng, 3)
	bShoup := r.ShoupPrecompPoly(b)
	for lv := 1; lv <= 3; lv++ {
		aB, aA := randPoly(r, rng, lv), randPoly(r, rng, lv)
		accB, accA := randPoly(r, rng, lv), randPoly(r, rng, lv)
		bv := &Poly{Coeffs: b.Coeffs[:lv]}
		wantB, wantA := r.NewPoly(lv), r.NewPoly(lv)
		r.MulCoeff(wantB, aB, bv)
		r.Add(wantB, wantB, accB)
		r.MulCoeff(wantA, aA, bv)
		r.Add(wantA, wantA, accA)
		r.MulCoeffShoupDualAdd(accB, accA, aB, aA, bv, bShoup)
		if !accB.Equal(wantB) || !accA.Equal(wantA) {
			t.Fatalf("%d limbs: MulCoeffShoupDualAdd differs from MulCoeff and Add", lv)
		}
	}
}

// TestMulCoeffMontDot: the row MAC against an A half in Montgomery form
// (MulScalar by 2^52) gives MulCoeff's words, fresh and accumulated, and
// its B totals reduce to Σ MulCoeff mod q over each half of the slots,
// accumulated over four calls as the row apply accumulates chunks. It runs on the host's kernels and on
// the Go loops, over the CHAM basis, 52-bit primes (the Go loop's widest
// narrow path) and 60-bit primes (wider than the Montgomery radix). The
// first four words pair 0 and q-1 every way; one call has every operand
// at q-1.
func TestMulCoeffMontDot(t *testing.T) {
	bases := map[string][]uint64{"cham": mod.ChamModuli()}
	for name, logQ := range map[string]uint{"52bit": 52, "wide": 60} {
		qs, err := mod.NTTFriendlyPrimes(logQ, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		bases[name] = qs
	}
	check := func(t *testing.T, r *Ring) {
		rng := testutil.NewRand(t)
		lv := r.Levels()
		gotA, wantA, prod := r.NewPoly(lv), r.NewPoly(lv), r.NewPoly(lv)
		dot := make([][2][2]uint64, lv)
		want := make([][2]uint64, lv)
		for call := 0; call < 4; call++ {
			x, b, a := randPoly(r, rng, lv), randPoly(r, rng, lv), randPoly(r, rng, lv)
			for l, m := range r.Moduli {
				copy(x.Coeffs[l], []uint64{0, 0, m.Q - 1, m.Q - 1})
				copy(b.Coeffs[l], []uint64{0, m.Q - 1, 0, m.Q - 1})
				copy(a.Coeffs[l], []uint64{0, m.Q - 1, 0, m.Q - 1})
				if call == 3 {
					for _, p := range []*Poly{x, b, a} {
						for i := range p.Coeffs[l] {
							p.Coeffs[l][i] = m.Q - 1
						}
					}
				}
			}
			aM := r.NewPoly(lv)
			r.MulScalar(aM, a, 1<<52)
			add := call > 0
			r.MulCoeff(prod, x, a)
			if add {
				r.Add(wantA, wantA, prod)
			} else {
				wantA.CopyFrom(prod)
			}
			r.MulCoeff(prod, x, b)
			for l, m := range r.Moduli {
				if !add {
					want[l] = [2]uint64{}
				}
				for i, v := range prod.Coeffs[l] {
					h := 2 * i / r.N
					want[l][h] = m.Add(want[l][h], v)
				}
			}
			r.MulCoeffMontDot(dot, gotA, x, b, aM, add)
			if !gotA.Equal(wantA) {
				t.Fatalf("call %d: the A half differs from MulCoeff", call)
			}
			for l, m := range r.Moduli {
				for h, d := range dot[l] {
					if d[0] >= m.Q {
						t.Fatalf("call %d limb %d half %d: total's high word %d is not reduced", call, l, h, d[0])
					}
					if got := m.BarrettReduce128(d[0], d[1]); got != want[l][h] {
						t.Fatalf("call %d limb %d half %d: dot reduces to %d, want %d", call, l, h, got, want[l][h])
					}
				}
			}
		}
	}
	for name, qs := range bases {
		r := MustNew(64, qs)
		t.Run(name, func(t *testing.T) { check(t, r) })
		t.Run(name+"/generic", func(t *testing.T) {
			vec.ForceGeneric(t)
			check(t, r)
		})
	}
}

// TestMulCoeffMontPairAdd: the key-switch pair MAC against keys in
// Montgomery form (MulScalar by 2^52), and its single-operand form —
// accumulated, and set in place as the phase sets a·s — give the words
// mod's Mul and Add give, on the host's kernels and on the Go loops. The bases are the CHAM basis, 52-bit primes (where the Go loop's
// wide sum reaches 2q) and 60-bit primes (wider than the radix). The first
// 32 words pair 0 and q-1 every way across a0, b0, a1, b1 and out.
func TestMulCoeffMontPairAdd(t *testing.T) {
	bases := map[string][]uint64{"cham": mod.ChamModuli()}
	for name, logQ := range map[string]uint{"52bit": 52, "wide": 60} {
		qs, err := mod.NTTFriendlyPrimes(logQ, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		bases[name] = qs
	}
	check := func(t *testing.T, r *Ring) {
		rng := testutil.NewRand(t)
		lv := r.Levels()
		out, a0, b0, a1, b1 := randPoly(r, rng, lv), randPoly(r, rng, lv), randPoly(r, rng, lv), randPoly(r, rng, lv), randPoly(r, rng, lv)
		for l, m := range r.Moduli {
			for i := 0; i < 32; i++ {
				for k, p := range []*Poly{a0, b0, a1, b1, out} {
					p.Coeffs[l][i] = (m.Q - 1) * uint64(i>>k&1)
				}
			}
		}
		b0M, b1M := r.NewPoly(lv), r.NewPoly(lv)
		r.MulScalar(b0M, b0, 1<<52)
		r.MulScalar(b1M, b1, 1<<52)
		wantPair, wantOne, wantSet := out.Copy(), out.Copy(), out.Copy()
		for l, m := range r.Moduli {
			for i := range wantPair.Coeffs[l] {
				p0 := m.Mul(a0.Coeffs[l][i], b0.Coeffs[l][i])
				p1 := m.Mul(a1.Coeffs[l][i], b1.Coeffs[l][i])
				wantPair.Coeffs[l][i] = m.Add(out.Coeffs[l][i], m.Add(p0, p1))
				wantOne.Coeffs[l][i] = m.Add(out.Coeffs[l][i], p0)
				wantSet.Coeffs[l][i] = p0
			}
		}
		got := out.Copy()
		r.MulCoeffMontPairAdd(got, a0, b0M, a1, b1M)
		if !got.Equal(wantPair) {
			t.Fatal("MulCoeffMontPairAdd differs from Mul and Add")
		}
		got = out.Copy()
		r.MulCoeffMont(got, a0, b0M, true)
		if !got.Equal(wantOne) {
			t.Fatal("MulCoeffMont, accumulating, differs from Mul and Add")
		}
		got = a0.Copy()
		r.MulCoeffMont(got, got, b0M, false)
		if !got.Equal(wantSet) {
			t.Fatal("MulCoeffMont, in place, differs from Mul")
		}
	}
	for name, qs := range bases {
		r := MustNew(64, qs)
		t.Run(name, func(t *testing.T) { check(t, r) })
		t.Run(name+"/generic", func(t *testing.T) {
			vec.ForceGeneric(t)
			check(t, r)
		})
	}
}

// TestMontInv: q·montInv(q) ≡ 1 (mod 2^52) for odd moduli that are not
// ≡ 1 modulo a high power of two, as NTT-friendly primes are, so every
// Newton step is needed.
func TestMontInv(t *testing.T) {
	rng := testutil.NewRand(t)
	qs := []uint64{3, 5, 1<<52 - 1, 1<<62 - 1}
	for i := 0; i < 1000; i++ {
		qs = append(qs, rng.Uint64()>>2|1)
	}
	for _, q := range qs {
		if got := q * montInv(q) & (montR - 1); got != 1 {
			t.Fatalf("q=%d: q·montInv(q) mod 2^52 = %d, want 1", q, got)
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

// TestINTTModDownToMatchesChain holds the resident exit, whose inverse
// transforms divide the last limb out in their final stage, to the INTT
// followed by ModDownTo it replaces, dropping to every smaller level count:
// on the CHAM basis at N=4096 and 512 and on a five-limb basis whose two
// special limbs send every drop but the last through ModDownTo — on the
// host's kernels and on the Go loops.
func TestINTTModDownToMatchesChain(t *testing.T) {
	multi, err := mod.NTTFriendlyPrimes(30, 128, 5)
	if err != nil {
		t.Fatal(err)
	}
	rings := map[string]*Ring{
		"cham/N4096": chamRing(t, 4096),
		"cham/N512":  chamRing(t, 512),
		"multi/N128": MustNew(128, multi),
	}
	run := func(t *testing.T) {
		rng := testutil.NewRand(t)
		for name, r := range rings {
			lv := r.Levels()
			for levels := 1; levels < lv; levels++ {
				for trial := 0; trial < 3; trial++ {
					p := randPoly(r, rng, lv)
					p.IsNTT = true
					want, got := r.NewPoly(levels), r.NewPoly(levels)
					chain := p.Copy()
					r.INTT(chain)
					r.ModDownTo(want, chain)
					got.IsNTT = true // must be reset
					r.INTTModDownTo(got, p)
					if !got.Equal(want) {
						t.Fatalf("%s, %d to %d limbs: INTTModDownTo differs from INTT then ModDownTo", name, lv, levels)
					}
				}
			}
		}
	}
	t.Run("dispatched", run)
	t.Run("generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		run(t)
	})
}

// TestNTTLiftIsCentredLift holds the lifted forward transform to the NTT of
// SetCentered's centred values, from every limb of the CHAM basis (the
// digit decomposition's sources, its own limb included) and from a
// plaintext modulus, out of place and with the source as out's first limb.
func TestNTTLiftIsCentredLift(t *testing.T) {
	run := func(t *testing.T) {
		rng := testutil.NewRand(t)
		for _, n := range []int{16, 64, 4096} {
			r := chamRing(t, n)
			sources := []uint64{65537}
			for _, m := range r.Moduli {
				sources = append(sources, m.Q)
			}
			for _, qFrom := range sources {
				src := make([]uint64, n)
				vals := make([]int64, n)
				src[0], src[1], src[2] = 0, qFrom/2, qFrom/2+1
				src[3] = qFrom - 1
				for i := range src {
					if i > 3 {
						src[i] = rng.Uint64() % qFrom
					}
					vals[i] = int64(src[i])
					if src[i] > qFrom/2 {
						vals[i] -= int64(qFrom)
					}
				}
				want := r.NewPoly(3)
				r.SetCentered(want, vals)
				r.NTT(want)
				got := r.NewPoly(3)
				r.NTTLift(got, src, qFrom)
				if !got.Equal(want) {
					t.Fatalf("N=%d, from %d: NTTLift differs from the NTT of the centred lift", n, qFrom)
				}
				got = r.NewPoly(3)
				copy(got.Coeffs[0], src)
				r.NTTLift(got, got.Coeffs[0], qFrom)
				if !got.Equal(want) {
					t.Fatalf("N=%d, from %d: NTTLift from out's first limb differs", n, qFrom)
				}
			}
		}
	}
	t.Run("dispatched", run)
	t.Run("generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		run(t)
	})
}

func TestModGuards(t *testing.T) {
	r := chamRing(t, 16)
	for name, fn := range map[string]func(){
		"ModDownInto on a single limb":   func() { r.ModDownInto(r.NewPoly(1), r.NewPoly(1)) },
		"ModDownInto level mismatch":     func() { r.ModDownInto(r.NewPoly(1), r.NewPoly(3)) },
		"ModDownTo with nothing to drop": func() { r.ModDownTo(r.NewPoly(2), r.NewPoly(2)) },
		"ModDownTo in the NTT domain":    func() { p := r.NewPoly(3); r.NTT(p); r.ModDownTo(r.NewPoly(2), p) },
		"ModDownInto in the NTT domain":  func() { p := r.NewPoly(2); r.NTT(p); r.ModDownInto(r.NewPoly(1), p) },
		"INTTModDownTo with nothing to drop": func() {
			p := r.NewPoly(2)
			r.NTT(p)
			r.INTTModDownTo(r.NewPoly(2), p)
		},
		"INTTModDownTo in the coefficient domain": func() { r.INTTModDownTo(r.NewPoly(2), r.NewPoly(3)) },
		"NTTLift with a short limb": func() {
			p := r.NewPoly(2)
			p.Coeffs[1] = p.Coeffs[1][:8]
			r.NTTLift(p, make([]uint64, r.N), 65537)
		},
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
