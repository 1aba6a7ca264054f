package ring

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"cham/internal/testutil"
	"cham/internal/vec"
)

// nttCopy returns a forward-transformed copy of p.
func nttCopy(r *Ring, p *Poly) *Poly {
	q := p.Copy()
	r.NTT(q)
	return q
}

// TestAutomorphNTTMatchesCoeff: the cached slot gather must equal
// NTT ∘ Automorph ∘ INTT for every automorphism index the packing tree
// uses (k = 2i+1, i a power of two) plus arbitrary odd k, including the
// in-place aliased call.
func TestAutomorphNTTMatchesCoeff(t *testing.T) {
	for _, n := range []int{16, 256} {
		r := chamRing(t, n)
		rng := testutil.NewRand(t)
		a := randPoly(r, rng, 3)
		ks := []int{-3, -1, 1, 7, 2*n - 1}
		for i := 1; i < n; i <<= 1 {
			ks = append(ks, 2*i+1)
		}
		for _, k := range ks {
			want := r.NewPoly(3)
			r.Automorph(want, a, k)
			r.NTT(want)

			aN := nttCopy(r, a)
			got := r.NewPoly(3)
			r.AutomorphNTT(got, aN, k)
			if !got.Equal(want) {
				t.Fatalf("N=%d k=%d: AutomorphNTT != NTT(Automorph)", n, k)
			}
			// Aliased in-place call must agree too.
			r.AutomorphNTT(aN, aN, k)
			if !aN.Equal(want) {
				t.Fatalf("N=%d k=%d: in-place AutomorphNTT differs", n, k)
			}
		}
	}
}

func TestAutomorphNTTRejectsEvenK(t *testing.T) {
	r := chamRing(t, 16)
	p := r.NewPoly(2)
	p.IsNTT = true
	defer func() {
		if recover() == nil {
			t.Fatal("even k accepted")
		}
	}()
	r.AutomorphNTT(p, p, 4)
}

// TestAutoPermTablesArePermutations: autoPermTable is the only producer of
// the index tables the gather kernels dereference, so every table it
// caches must be a permutation of [0, N) — for each automorphism index
// the packing keys use (k = 2i+1, i a power of two below N) and a few
// hundred arbitrary odd k, negative ones included.
func TestAutoPermTablesArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 512, 4096} {
		r := chamRing(t, n)
		var ks []int
		for i := 1; i < n; i <<= 1 {
			ks = append(ks, 2*i+1)
		}
		for i := 0; i < 300; i++ {
			ks = append(ks, 2*(rng.Intn(8*n)-4*n)+1)
		}
		seen := make([]bool, n)
		for _, k := range ks {
			perm := r.autoPermTable(k)
			if len(perm) != n {
				t.Fatalf("N=%d k=%d: table has %d entries", n, k, len(perm))
			}
			for i := range seen {
				seen[i] = false
			}
			for j, src := range perm {
				if int(src) >= n || seen[src] {
					t.Fatalf("N=%d k=%d: entry %d = %d is out of range or repeated", n, k, j, src)
				}
				seen[src] = true
			}
		}
	}
}

// TestNTTPermutationOpsRejectAliasedOperands: the two sweeps whose result
// depends on the order slots are visited in when an output overlaps an
// input refuse the call instead of answering differently per kernel.
func TestNTTPermutationOpsRejectAliasedOperands(t *testing.T) {
	r := chamRing(t, 16)
	p := func() *Poly {
		x := r.NewPoly(3)
		x.IsNTT = true
		return x
	}
	a, b, c := p(), p(), p()
	cases := []struct {
		name, want string
		call       func()
	}{
		{"AutomorphNTTAddInto(a, a)", "ring: AutomorphNTTAddInto operands alias", func() { r.AutomorphNTTAddInto(a, a, 3) }},
		{"MonomialSplitNTT diff = E", "ring: MonomialSplitNTT diff aliases an input", func() { r.MonomialSplitNTT(c, a, a, b, 1) }},
		{"MonomialSplitNTT diff = O", "ring: MonomialSplitNTT diff aliases an input", func() { r.MonomialSplitNTT(c, b, a, b, 1) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != tc.want {
					t.Errorf("%s: recovered %q, want %q", tc.name, msg, tc.want)
				}
			}()
			tc.call()
		}()
	}
	r.MonomialSplitNTT(a, c, a, b, 1) // sum over E stays legal
}

// TestMonomialSplitNTTMatchesCoeff: the cached NTT image of X^e behind
// MonomialSplitNTT must realise the coefficient-domain MulMonomial for
// every exponent class (beyond N, negative, zero): with E = 0 the split's
// sum is NTT(X^e·O) and its difference the negation.
func TestMonomialSplitNTTMatchesCoeff(t *testing.T) {
	n := 64
	r := chamRing(t, n)
	rng := testutil.NewRand(t)
	a := randPoly(r, rng, 3)
	aN := nttCopy(r, a)
	zero := r.NewPoly(3)
	zero.IsNTT = true
	for _, e := range []int{0, 1, 5, n - 1, n, n + 3, 2*n - 1, -1, -n, -5} {
		want := r.NewPoly(3)
		r.MulMonomial(want, a, e)
		r.NTT(want)
		neg := r.NewPoly(3)
		r.Neg(neg, want)

		sum, diff := r.NewPoly(3), r.NewPoly(3)
		r.MonomialSplitNTT(sum, diff, zero, aN, e)
		if !sum.Equal(want) || !diff.Equal(neg) {
			t.Fatalf("e=%d: MonomialSplitNTT(0, a) != ±NTT(MulMonomial)", e)
		}
	}
}

// FuzzAutomorphNTT: for random polynomials and any valid (odd)
// automorphism index, the NTT-slot permutation — plain, in place and
// fused with its accumulation, on the host's kernels and on the Go loops
// — must equal the coefficient-domain Automorph composed with the
// transforms.
func FuzzAutomorphNTT(f *testing.F) {
	n := 32
	r := chamRing(f, n)
	f.Add(uint32(1), []byte{1, 2, 3})
	f.Add(uint32(3), []byte{0xff, 0x00, 0x80, 0x7f})
	f.Add(uint32(2*16+1), []byte{9, 9, 9, 9, 9, 9, 9, 9, 1})
	f.Fuzz(func(t *testing.T, kRaw uint32, data []byte) {
		k := int(kRaw)%(2*n) | 1 // force odd, in [1, 2N)
		a := r.NewPoly(3)
		for l := range a.Coeffs {
			q := r.Moduli[l].Q
			for i := range a.Coeffs[l] {
				var w uint64
				if len(data) > 0 {
					off := (l*n + i) * 3 % len(data)
					var buf [8]byte
					copy(buf[:], data[off:])
					w = binary.LittleEndian.Uint64(buf[:])
				}
				a.Coeffs[l][i] = w % q
			}
		}
		want := r.NewPoly(3)
		r.Automorph(want, a, k)
		r.NTT(want)
		twice := r.NewPoly(3)
		r.Add(twice, want, want)
		check := func(impl string) {
			aN := nttCopy(r, a)
			got := r.NewPoly(3)
			r.AutomorphNTT(got, aN, k)
			if !got.Equal(want) {
				t.Fatalf("k=%d (%s): AutomorphNTT != NTT(Automorph)", k, impl)
			}
			r.AutomorphNTTAddInto(got, aN, k)
			if !got.Equal(twice) {
				t.Fatalf("k=%d (%s): AutomorphNTTAddInto != sum of the two images", k, impl)
			}
			r.AutomorphNTT(aN, aN, k)
			if !aN.Equal(want) {
				t.Fatalf("k=%d (%s): in-place AutomorphNTT differs", k, impl)
			}
		}
		check(vec.Impl())
		vec.ForceGeneric(t)
		check(vec.ImplGeneric)
	})
}
