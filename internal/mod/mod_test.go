package mod

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// testModuli mixes the CHAM production moduli with generic primes that do
// NOT have the low-Hamming-weight form, plus tiny and near-limit primes.
var testModuli = []uint64{
	ChamQ0, ChamQ1, ChamP,
	97, 257, 65537,
	(1 << 31) - 1,       // Mersenne prime M31
	(1 << 62) - 1,       // near-limit candidate; init() walks down to a prime
	1152921504606846975, // 60-bit candidate; init() walks down to a prime
}

func init() {
	// Replace any non-prime placeholders with verified primes so tests are
	// honest about their inputs.
	for i, q := range testModuli {
		for !IsPrime(q) {
			q -= 2
		}
		testModuli[i] = q
	}
}

func TestTryNewRejectsBadModuli(t *testing.T) {
	for _, q := range []uint64{0, 1, 2, 4, 100, 1 << 63} {
		if _, err := TryNew(q); err == nil {
			t.Errorf("TryNew(%d): expected error", q)
		}
	}
}

func TestNewPanicsOnEven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(8) did not panic")
		}
	}()
	New(8)
}

func TestLowHWForm(t *testing.T) {
	cases := []struct {
		q      uint64
		ok     bool
		e2, e1 uint
	}{
		{ChamQ0, true, 34, 27},
		{ChamQ1, true, 34, 19},
		{ChamP, true, 38, 23},
		{97, true, 6, 5},     // 2^6 + 2^5 + 1
		{11, true, 3, 1},     // 2^3 + 2^1 + 1
		{7, true, 2, 1},      // 2^2 + 2^1 + 1
		{73, true, 6, 3},     // 2^6 + 2^3 + 1
		{65537, false, 0, 0}, // only two non-zero bits
		{105, false, 0, 0},   // 64+32+8+1: four non-zero bits
		{14, false, 0, 0},    // even: 8+4+2
	}
	for _, c := range cases {
		ok, e2, e1 := lowHWForm(c.q)
		if ok != c.ok || e2 != c.e2 || e1 != c.e1 {
			t.Errorf("lowHWForm(%d) = (%v,%d,%d), want (%v,%d,%d)",
				c.q, ok, e2, e1, c.ok, c.e2, c.e1)
		}
	}
}

func TestChamModuliAreSpecialPrimes(t *testing.T) {
	for _, q := range ChamModuli() {
		if !IsPrime(q) {
			t.Errorf("%d is not prime", q)
		}
		if (q-1)%8192 != 0 {
			t.Errorf("%d is not 1 mod 2N for N=4096", q)
		}
		if bits.OnesCount64(q) != 3 {
			t.Errorf("%d does not have exactly 3 non-zero bits", q)
		}
	}
}

func TestAddSubNeg(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		rng := rand.New(rand.NewSource(int64(q)))
		for i := 0; i < 200; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got, want := m.Add(a, b), (a%q+b%q)%q; got != want {
				t.Fatalf("q=%d Add(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got, want := m.Sub(a, b), (a+q-b)%q; got != want {
				t.Fatalf("q=%d Sub(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got := m.Add(a, m.Neg(a)); got != 0 {
				t.Fatalf("q=%d a + (-a) = %d", q, got)
			}
		}
	}
}

// TestMulAgreement property-tests every fast multiplication path against the
// canonical 128-bit division path.
func TestMulAgreement(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		f := func(a, b uint64) bool {
			a, b = a%q, b%q
			want := m.Mul(a, b)
			if m.MulBarrett(a, b) != want {
				return false
			}
			wp := m.ShoupPrecomp(b)
			if m.MulShoup(a, b, wp) != want {
				return false
			}
			if m.LowHW && m.MulShiftAdd(a, b) != want {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("q=%d: %v", q, err)
		}
	}
}

func TestMulEdgeCases(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		edges := []uint64{0, 1, 2, q - 2, q - 1, q / 2, q/2 + 1}
		for _, a := range edges {
			for _, b := range edges {
				want := m.Mul(a, b)
				if got := m.MulBarrett(a, b); got != want {
					t.Fatalf("q=%d Barrett(%d,%d)=%d want %d", q, a, b, got, want)
				}
				wp := m.ShoupPrecomp(b)
				if got := m.MulShoup(a, b, wp); got != want {
					t.Fatalf("q=%d Shoup(%d,%d)=%d want %d", q, a, b, got, want)
				}
			}
		}
	}
}

func TestMulQShiftAdd(t *testing.T) {
	for _, q := range ChamModuli() {
		m := New(q)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			x := rng.Uint64()
			if got, want := m.MulQShiftAdd(x), x*q; got != want {
				t.Fatalf("q=%d MulQShiftAdd(%d)=%d want %d", q, x, got, want)
			}
		}
	}
	m := New(65537) // not low-HW
	defer func() {
		if recover() == nil {
			t.Fatal("MulQShiftAdd on generic modulus did not panic")
		}
	}()
	m.MulQShiftAdd(1)
}

func TestReduce128(t *testing.T) {
	m := New(ChamQ0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		hi, lo := rng.Uint64(), rng.Uint64()
		want := m.BarrettReduce128(hi%m.Q, lo) // hi<q precondition of Barrett
		if got := m.Reduce128(hi%m.Q, lo); got != want {
			t.Fatalf("Reduce128(%d,%d)=%d want %d", hi, lo, got, want)
		}
	}
}

func TestPowInv(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		rng := rand.New(rand.NewSource(int64(q) ^ 0x5a5a))
		for i := 0; i < 100; i++ {
			a := rng.Uint64()%(q-1) + 1
			inv := m.Inv(a)
			if m.Mul(a, inv) != 1 {
				t.Fatalf("q=%d: a·a^-1 != 1 for a=%d", q, a)
			}
		}
		if m.Pow(3, 0) != 1 {
			t.Errorf("q=%d: 3^0 != 1", q)
		}
		if m.Pow(0, 5) != 0 {
			t.Errorf("q=%d: 0^5 != 0", q)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	New(97).Inv(0)
}

func TestCenterLiftRoundTrip(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		f := func(a uint64) bool {
			a %= q
			c := m.CenterLift(a)
			if c > int64(q/2) || c <= -int64(q)/2-1 {
				return false
			}
			return m.FromCentered(c) == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("q=%d: %v", q, err)
		}
	}
}

func TestFromCenteredNegative(t *testing.T) {
	m := New(97)
	if got := m.FromCentered(-1); got != 96 {
		t.Errorf("FromCentered(-1) = %d, want 96", got)
	}
	if got := m.FromCentered(-97 * 3); got != 0 {
		t.Errorf("FromCentered(-291) = %d, want 0", got)
	}
}

// TestFoldReduce property-tests the multiplier-free folding reduction
// against the canonical division path on every low-Hamming-weight modulus.
func TestFoldReduce(t *testing.T) {
	for _, q := range []uint64{7, 11, 97, ChamQ0, ChamQ1, ChamP} {
		m := New(q)
		if !m.LowHW {
			t.Fatalf("%d should be low-HW", q)
		}
		f := func(hi, lo uint64) bool {
			return m.FoldReduce128(hi, lo) == m.Reduce128(hi, lo)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("q=%d: %v", q, err)
		}
		// Edges.
		for _, hi := range []uint64{0, 1, ^uint64(0)} {
			for _, lo := range []uint64{0, 1, q - 1, ^uint64(0)} {
				if m.FoldReduce128(hi, lo) != m.Reduce128(hi, lo) {
					t.Fatalf("q=%d: fold(%d,%d) wrong", q, hi, lo)
				}
			}
		}
		// MulFold agrees with Mul on random residues.
		rng := rand.New(rand.NewSource(int64(q)))
		for i := 0; i < 500; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if m.MulFold(a, b) != m.Mul(a, b) {
				t.Fatalf("q=%d: MulFold(%d,%d) wrong", q, a, b)
			}
		}
	}
	generic := New(65537)
	defer func() {
		if recover() == nil {
			t.Fatal("FoldReduce128 on generic modulus did not panic")
		}
	}()
	generic.FoldReduce128(0, 1)
}

// shoupPrecompDiv64 is the hardware-division companion ShoupPrecomp
// computed until it went division-free, kept as the oracle.
func shoupPrecompDiv64(q, w uint64) uint64 {
	quo, _ := bits.Div64(w%q, 0, q)
	return quo
}

// TestShoupPrecompMatchesDiv64 holds the reciprocal companion to the
// divided one: the CHAM moduli, t, and random odd moduli up to 2^62, on
// the boundary words and a million random ones.
func TestShoupPrecompMatchesDiv64(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	moduli := append([]uint64{65537, 3, 1<<62 - 1}, testModuli...)
	for i := 0; i < 64; i++ {
		moduli = append(moduli, (rng.Uint64()>>uint(2+rng.Intn(60)))|3)
	}
	perModulus := 1000000 / len(moduli)
	if testing.Short() {
		perModulus /= 10
	}
	for _, q := range moduli {
		m := New(q)
		check := func(w uint64) {
			if got, want := m.ShoupPrecomp(w), shoupPrecompDiv64(q, w); got != want {
				t.Fatalf("q=%d: ShoupPrecomp(%d) = %d, want %d", q, w, got, want)
			}
		}
		for _, w := range []uint64{0, 1, 2, q - 1, q - 2, q/2 - 1, q / 2, q/2 + 1} {
			check(w)
		}
		for i := 0; i < perModulus; i++ {
			check(rng.Uint64() % q)
		}
	}
}
