package ring

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"cham/internal/mod"
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
// input refuse the call instead of answering differently per kernel. A
// split reads E and O at a slot before it writes that slot, so sum over E
// and diff over O (the in-place split) stay legal and give the
// out-of-place words, on the host's kernels and on the Go loops.
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
		{"MonomialSplitNTT diff = E", "ring: MonomialSplitNTT diff aliases E", func() { r.MonomialSplitNTT(c, a, a, b, 1) }},
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
	rng := testutil.NewRand(t)
	check := func(impl string) {
		for _, e := range []int{1, 8} { // the Go loop's runs, the kernel's
			E, O := randPoly(r, rng, 3), randPoly(r, rng, 3)
			E.IsNTT, O.IsNTT = true, true
			sum, diff := r.NewPoly(3), r.NewPoly(3)
			r.MonomialSplitNTT(sum, diff, E, O, e)
			r.MonomialSplitNTT(E, O, E, O, e)
			if !E.Equal(sum) || !O.Equal(diff) {
				t.Errorf("e=%d (%s): the in-place split differs from the out-of-place one", e, impl)
			}
		}
	}
	check(vec.Impl())
	vec.ForceGeneric(t)
	check(vec.ImplGeneric)
}

// TestMonomialSplitNTTMatchesCoeff: the cached NTT image of X^e behind
// MonomialSplitNTT must realise the coefficient-domain MulMonomial for
// every exponent class (beyond N, negative, zero, and the packing tree's
// N/2i, whose runs of 8 or more slots take the vector kernel where there is
// one): with E = 0 the split's sum is NTT(X^e·O) and its difference the
// negation.
func TestMonomialSplitNTTMatchesCoeff(t *testing.T) {
	const n = 64
	wide, err := mod.NTTFriendlyPrimes(60, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, r *Ring) {
		lv := r.Levels()
		rng := testutil.NewRand(t)
		a := randPoly(r, rng, lv)
		aN := nttCopy(r, a)
		zero := r.NewPoly(lv)
		zero.IsNTT = true
		for _, e := range []int{0, 1, 5, 8, 16, 32, n - 1, n, n + 3, n + 16, 2*n - 1, -1, -n, -5, -32} {
			want := r.NewPoly(lv)
			r.MulMonomial(want, a, e)
			r.NTT(want)
			neg := r.NewPoly(lv)
			r.Sub(neg, zero, want)

			sum, diff := r.NewPoly(lv), r.NewPoly(lv)
			r.MonomialSplitNTT(sum, diff, zero, aN, e)
			if !sum.Equal(want) || !diff.Equal(neg) {
				t.Fatalf("e=%d: MonomialSplitNTT(0, a) != ±NTT(MulMonomial)", e)
			}
		}
	}
	for name, r := range map[string]*Ring{"cham": chamRing(t, n), "wide": MustNew(n, wide)} {
		t.Run(name, func(t *testing.T) { check(t, r) })
		t.Run(name+"/generic", func(t *testing.T) {
			vec.ForceGeneric(t)
			check(t, r)
		})
	}
}

// TestMonoTableRuns: the monomial cache keeps one value per run of 2^s
// slots, s the trailing zeros of e mod 2N (one run for e = 0 and e = N),
// so the packing tree's exponent N/2i holds 2i values per limb; and over
// every exponent class the image ψ^{e·(2·brv(j)+1)} is constant over each
// run, equal to the run's value out of Montgomery form.
func TestMonoTableRuns(t *testing.T) {
	const n = 64
	r := chamRing(t, n)
	for e := 0; e < 2*n; e++ {
		tab := r.monoNTTTable(e)
		s := min(bits.TrailingZeros(uint(e)), 6)
		if tab.logRun != s {
			t.Fatalf("e=%d: runs of 2^%d slots, want 2^%d", e, tab.logRun, s)
		}
		for l, m := range r.Moduli {
			if len(tab.vals[l]) != n>>s {
				t.Fatalf("e=%d limb %d: %d values, want %d", e, l, len(tab.vals[l]), n>>s)
			}
			// Slot j of NTT(X^e) is ψ^{e·(2·brv(j)+1)}; the table holds it
			// times 2^52.
			for j := 0; j < n; j++ {
				v := m.Pow(r.Tables[l].Psi, uint64(e*(2*int(brv(uint(j), 6))+1)%(2*n)))
				if w := m.Mul(v, 1<<52); tab.vals[l][j>>s] != w {
					t.Fatalf("e=%d limb %d: slot %d is %d·2^52 = %d, its run's value %d", e, l, j, v, w, tab.vals[l][j>>s])
				}
			}
		}
	}
	// The design point's deepest merge (groups of 128, z = 16).
	dp := chamRing(t, 4096)
	tab := dp.monoNTTTable(16)
	for l := range dp.Moduli {
		if len(tab.vals[l]) != 256 {
			t.Fatalf("N=4096 z=16 limb %d: %d values, want 256", l, len(tab.vals[l]))
		}
	}
}

// TestAutomorphNegatesTreeMonomial pins the identity the packing tree's
// first level is built on (core's prepared row pairs write a merge's BT
// from two constants): φ_{2i+1}(X^{N/2i}) = X^{N+N/2i} = −X^{N/2i}, so the
// run value of NTT(X^{N/2i}) at slot autoPermTable(2i+1)[j] is q minus its
// value at slot j (in the table's Montgomery form too, which negation
// commutes with), for every group size i of a tree of up to N leaves and
// every limb. And φ_3's gather maps the first half of the slots onto the
// second and the second onto the first.
func TestAutomorphNegatesTreeMonomial(t *testing.T) {
	for _, n := range []int{64, 4096} {
		r := chamRing(t, n)
		for i := 1; i < n; i <<= 1 {
			tab := r.monoNTTTable(n / (2 * i))
			perm := r.autoPermTable(2*i + 1)
			for l, m := range r.Moduli {
				at := func(j int) uint64 { return tab.vals[l][j>>tab.logRun] }
				for j := 0; j < n; j++ {
					if got, want := at(int(perm[j])), m.Q-at(j); got != want {
						t.Fatalf("N=%d i=%d limb %d slot %d: NTT(X^%d) at φ_%d's source slot %d is %d, want q − %d = %d",
							n, i, l, j, n/(2*i), 2*i+1, perm[j], got, at(j), want)
					}
				}
			}
		}
		for j, src := range r.autoPermTable(3) {
			if (j < n/2) == (int(src) < n/2) {
				t.Fatalf("N=%d: φ_3 gathers slot %d from slot %d, the same half", n, j, src)
			}
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
