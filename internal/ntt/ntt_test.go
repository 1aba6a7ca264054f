package ntt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cham/internal/mod"
	"cham/internal/testutil"
)

// naiveForward evaluates a at ψ^(2k+1) for k = 0..N-1 in O(N²) and
// returns the results in natural k order (NOT bit-reversed).
func (t *Table) naiveForward(a []uint64) []uint64 {
	m := t.M
	out := make([]uint64, t.N)
	for k := 0; k < t.N; k++ {
		x := m.Pow(t.Psi, uint64(2*k+1)) // evaluation point
		var acc, pw uint64 = 0, 1
		for n := 0; n < t.N; n++ {
			acc = m.Add(acc, m.Mul(a[n], pw))
			pw = m.Mul(pw, x)
		}
		out[k] = acc
	}
	return out
}

// smallPrime returns an NTT-friendly prime for size n usable in exhaustive
// small-N tests.
func smallPrime(t *testing.T, n uint64) uint64 {
	t.Helper()
	ps, err := mod.NTTFriendlyPrimes(20, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ps[0]
}

func randomPoly(rng *rand.Rand, n int, q uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % q
	}
	return a
}

func TestNewTableRejectsBadParams(t *testing.T) {
	if _, err := NewTable(3, 97); err == nil {
		t.Error("non-power-of-two N accepted")
	}
	if _, err := NewTable(0, 97); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewTable(4096, 97); err == nil {
		t.Error("q not 1 mod 2N accepted")
	}
	if _, err := NewTable(4, 16); err == nil {
		t.Error("even q accepted")
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable did not panic on bad params")
		}
	}()
	MustTable(3, 97)
}

// TestForwardMatchesNaive checks that ForwardLazy output equals the O(N²)
// evaluation at ψ^(2k+1) in bit-reversed order.
func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		q := smallPrime(t, uint64(n))
		tb := MustTable(n, q)
		for trial := 0; trial < 5; trial++ {
			a := randomPoly(rng, n, q)
			want := tb.naiveForward(a)
			got := make([]uint64, n)
			copy(got, a)
			tb.ForwardLazy(got)
			for j := 0; j < n; j++ {
				if got[j] != want[brv(uint(j), tb.LogN)] {
					t.Fatalf("N=%d trial %d: ForwardLazy[%d]=%d, naive[brv]=%d",
						n, trial, j, got[j], want[brv(uint(j), tb.LogN)])
				}
			}
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 64, 256, 4096} {
		for _, q := range []uint64{mod.ChamQ0, mod.ChamQ1, mod.ChamP} {
			tb := MustTable(n, q)
			a := randomPoly(rng, n, q)
			b := make([]uint64, n)
			copy(b, a)
			tb.ForwardLazy(b)
			tb.InverseLazy(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("N=%d q=%d: round trip differs at %d", n, q, i)
				}
			}
		}
	}
}

// TestConvolutionTheorem: INTT(NTT(a) ∘ NTT(b)) must equal the negacyclic
// product of a and b.
func TestConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 32, 128} {
		q := smallPrime(t, uint64(n))
		tb := MustTable(n, q)
		a := randomPoly(rng, n, q)
		b := randomPoly(rng, n, q)
		want := testutil.SchoolbookMul(q, a, b)

		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		tb.ForwardLazy(fa)
		tb.ForwardLazy(fb)
		for i := range fa {
			fa[i] = tb.M.Mul(fa[i], fb[i])
		}
		tb.InverseLazy(fa)
		for i := range want {
			if fa[i] != want[i] {
				t.Fatalf("N=%d: product differs at %d: got %d want %d", n, i, fa[i], want[i])
			}
		}
	}
}

// TestNTTLinearity property-tests that the transform is linear.
func TestNTTLinearity(t *testing.T) {
	const n = 64
	q := uint64(mod.ChamQ0)
	tb := MustTable(n, q)
	rng := rand.New(rand.NewSource(4))
	f := func(c uint64) bool {
		c %= q
		a := randomPoly(rng, n, q)
		b := randomPoly(rng, n, q)
		// lhs = NTT(c·a + b)
		lhs := make([]uint64, n)
		for i := range lhs {
			lhs[i] = tb.M.Add(tb.M.Mul(c, a[i]), b[i])
		}
		tb.ForwardLazy(lhs)
		// rhs = c·NTT(a) + NTT(b)
		tb.ForwardLazy(a)
		tb.ForwardLazy(b)
		for i := range a {
			r := tb.M.Add(tb.M.Mul(c, a[i]), b[i])
			if r != lhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForwardCGMatchesCT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 4, 8, 16, 256, 4096} {
		for _, q := range []uint64{mod.ChamQ0, mod.ChamP} {
			tb := MustTable(n, q)
			a := randomPoly(rng, n, q)
			want := append([]uint64(nil), a...)
			tb.ForwardLazy(want)
			got := make([]uint64, n)
			tb.ForwardCG(got, a)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("N=%d q=%d: CG differs from CT at %d", n, q, i)
				}
			}
		}
	}
}

func TestInverseCGMatchesCT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 4, 8, 16, 256, 4096} {
		q := uint64(mod.ChamQ1)
		tb := MustTable(n, q)
		a := randomPoly(rng, n, q) // arbitrary NTT-domain data
		want := append([]uint64(nil), a...)
		tb.InverseLazy(want)
		got := make([]uint64, n)
		tb.InverseCG(got, a)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("N=%d: InverseCG differs from Inverse at %d", n, i)
			}
		}
	}
}

func TestCGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{8, 128, 4096} {
		tb := MustTable(n, mod.ChamQ0)
		a := randomPoly(rng, n, tb.M.Q)
		fwd := make([]uint64, n)
		back := make([]uint64, n)
		tb.ForwardCG(fwd, a)
		tb.InverseCG(back, fwd)
		for i := range a {
			if back[i] != a[i] {
				t.Fatalf("N=%d: CG round trip differs at %d", n, i)
			}
		}
	}
}

func TestCGTwiddleIndexLayout(t *testing.T) {
	tb := MustTable(32, smallPrime(t, 32))
	// Stage s uses exactly 2^s distinct twiddle indices, cycling with
	// period 2^s, so consecutive butterflies (one Fig.-4 "column" per clock
	// cycle) consume distinct factors and BFU b only ever needs indices
	// ≡ b (mod n_bf).
	for s := 0; s < tb.LogN; s++ {
		period := 1 << s
		seen := map[int]bool{}
		for j := 0; j < tb.N/2; j++ {
			k := tb.CGTwiddleIndex(s, j)
			if k < 1<<s || k >= 2<<s {
				t.Fatalf("stage %d: twiddle index %d outside [%d,%d)", s, k, 1<<s, 2<<s)
			}
			if j >= period && k != tb.CGTwiddleIndex(s, j-period) {
				t.Fatalf("stage %d: sequence not periodic with period %d at j=%d", s, period, j)
			}
			if j < period {
				if seen[k] {
					t.Fatalf("stage %d: twiddle %d repeated within one period", s, k)
				}
				seen[k] = true
			}
		}
		if len(seen) != period {
			t.Fatalf("stage %d: %d distinct twiddles, want %d", s, len(seen), period)
		}
	}
	// The total distinct-factor footprint across all stages is N-1
	// (paper §IV.A.2: "the size of twiddle factors is equal to the size of
	// a polynomial").
	distinct := map[int]bool{}
	for s := 0; s < tb.LogN; s++ {
		for j := 0; j < tb.N/2; j++ {
			distinct[tb.CGTwiddleIndex(s, j)] = true
		}
	}
	if len(distinct) != tb.N-1 {
		t.Fatalf("%d distinct twiddle indices, want N-1 = %d", len(distinct), tb.N-1)
	}
}

// TestBitReverseInvolution: brv, the index map of every twiddle table and
// of the forward transform's output order, is an involution on LogN bits.
func TestBitReverseInvolution(t *testing.T) {
	for width := 1; width <= 12; width++ {
		for i := uint(0); i < 1<<width; i++ {
			if j := brv(i, width); j >= 1<<width || brv(j, width) != i {
				t.Fatalf("brv(%d, %d) = %d is not an involution", i, width, j)
			}
		}
	}
}

func TestForwardPanicsOnLengthMismatch(t *testing.T) {
	tb := MustTable(8, smallPrime(t, 8))
	for name, fn := range map[string]func(){
		"Forward":   func() { tb.ForwardLazy(make([]uint64, 4)) },
		"Inverse":   func() { tb.InverseLazy(make([]uint64, 4)) },
		"ForwardCG": func() { tb.ForwardCG(make([]uint64, 8), make([]uint64, 4)) },
		"InverseCG": func() { tb.InverseCG(make([]uint64, 4), make([]uint64, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestForwardLazyMatchesForward: the lazy-reduction transform is
// bit-identical to a forward schedule that fully reduces after every
// butterfly (ForwardCG, Alg. 4) on random and adversarial inputs.
func TestForwardLazyMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{8, 256, 4096} {
		for _, q := range []uint64{mod.ChamQ0, mod.ChamQ1, mod.ChamP} {
			tb := MustTable(n, q)
			for trial := 0; trial < 4; trial++ {
				a := randomPoly(rng, n, q)
				if trial == 1 { // all q-1: worst-case magnitudes
					for i := range a {
						a[i] = q - 1
					}
				}
				if trial == 2 {
					for i := range a {
						a[i] = 0
					}
				}
				want := make([]uint64, n)
				tb.ForwardCG(want, a)
				got := append([]uint64(nil), a...)
				tb.ForwardLazy(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("N=%d q=%d trial %d: lazy differs at %d", n, q, trial, i)
					}
				}
			}
		}
	}
}
