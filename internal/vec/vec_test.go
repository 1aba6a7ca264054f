package vec_test

// Every kernel against its own Go loop. The loops live next to their
// callers (ntt, ring), so the harness drives each caller twice on the same
// inputs — once as dispatched on this host, once with the switch forced
// off — and requires identical output rows. On a host without AVX-512 IFMA
// both runs take the Go loop and the comparison is vacuous; the gate tests
// below still apply.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cham/internal/bfv"
	"cham/internal/mod"
	"cham/internal/ring"
	"cham/internal/vec"
)

// Fill modes for generated rows: uniform below the bound, all zero, all at
// the top of the documented range (bound-1), or cycling through the values
// around 0, bound/2 and bound.
const (
	fillRandom = iota
	fillZero
	fillTop
	fillEdges
	numFills
)

var fillNames = [numFills]string{"random", "zero", "top", "edges"}

// moduliSets are the bases the kernels are checked on. The third set lies
// above the 2^50 gate, so every kernel must decline it.
func moduliSets(tb testing.TB) map[string][]uint64 {
	tb.Helper()
	under, err := mod.NTTFriendlyPrimes(50, 4096, 3)
	if err != nil {
		tb.Fatal(err)
	}
	over, err := mod.NTTFriendlyPrimes(51, 4096, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]uint64{"cham": mod.ChamModuli(), "under50": under, "over50": over}
}

// gen draws the inputs of one runAll pass. Two generators with the same
// seed and fill produce the same rows in the same order.
type gen struct {
	r    *ring.Ring
	rng  *rand.Rand
	fill int
}

// row returns N words below bound per the fill mode.
func (g *gen) row(bound uint64) []uint64 { return g.words(g.r.N, bound) }

// words returns n words below bound per the fill mode.
func (g *gen) words(n int, bound uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		switch g.fill {
		case fillRandom:
			a[i] = g.rng.Uint64() % bound
		case fillTop:
			a[i] = bound - 1
		case fillEdges:
			edges := [...]uint64{0, 1, bound/2 - 1, bound / 2, bound/2 + 1, bound - 2, bound - 1, g.rng.Uint64() % bound}
			a[i] = edges[(i+i/8)%8] // rotate so every lane sees every edge
		}
	}
	return a
}

// poly returns a full-basis polynomial with canonical residues.
func (g *gen) poly(isNTT bool) *ring.Poly {
	p := g.r.NewPoly(g.r.Levels())
	for l := range p.Coeffs {
		copy(p.Coeffs[l], g.row(g.r.Moduli[l].Q))
	}
	p.IsNTT = isNTT
	return p
}

type result struct {
	name string
	rows [][]uint64
}

// runAll drives every accelerated caller once and returns the rows each
// wrote, including the aliased forms the Go functions permit.
func runAll(r *ring.Ring, seed int64, fill int) []result {
	g := &gen{r: r, rng: rand.New(rand.NewSource(seed)), fill: fill}
	lv := r.Levels()
	var out []result
	// keep snapshots the rows, so a polynomial may be written again later.
	keep := func(name string, ps ...*ring.Poly) {
		var rows [][]uint64
		for _, p := range ps {
			rows = append(rows, p.Copy().Coeffs...)
		}
		out = append(out, result{name, rows})
	}

	// Transforms, inputs up to 4q-1 forward and 2q-1 inverse.
	for l, tab := range r.Tables {
		q := r.Moduli[l].Q
		a := g.row(4 * q)
		tab.ForwardLazy(a)
		out = append(out, result{fmt.Sprintf("forward/limb%d", l), [][]uint64{a}})
		a = g.row(2 * q)
		tab.InverseLazy(a)
		out = append(out, result{fmt.Sprintf("inverse/limb%d", l), [][]uint64{a}})
	}

	// The lifted forward transform into every limb, out of place and in
	// place, from every limb of the basis — the digit decomposition's
	// pairs, the digit's own limb included — from Prepare's t, and from
	// the widest source the kernel admits for that limb, ⌊2^52/q⌋·q − 1,
	// whose lift reaches the lane's top and leaves no pass any headroom.
	// The edges fill puts half-1, half, half+1 and qFrom-1 in every lane.
	for l, tab := range r.Tables {
		q := r.Moduli[l].Q
		names, sources := []string{"t", "wide"}, []uint64{65537, (1<<52)/q*q - 1}
		for from, m := range r.Moduli {
			names, sources = append(names, fmt.Sprintf("limb%d", from)), append(sources, m.Q)
		}
		for i, name := range names {
			qFrom := sources[i]
			src := g.row(qFrom)
			lifted := make([]uint64, r.N)
			tab.ForwardLazyLift(lifted, src, qFrom)
			tab.ForwardLazyLift(src, src, qFrom)
			out = append(out, result{fmt.Sprintf("forwardlift/limb%d<-%s", l, name), [][]uint64{lifted, src}})
		}
	}
	// The dropping inverse, the last limb divided out of every other, out
	// of place and in place, and the ring's exit through it.
	last := lv - 1
	for l, tab := range r.Tables[:last] {
		drop := tab.NewDrop(r.Moduli[last].Q)
		a, sp := g.row(2*r.Moduli[l].Q), g.row(r.Moduli[last].Q)
		down := make([]uint64, r.N)
		tab.InverseLazyDrop(down, a, sp, &drop)
		a = g.row(2 * r.Moduli[l].Q)
		tab.InverseLazyDrop(a, a, sp, &drop)
		out = append(out, result{fmt.Sprintf("inversedrop/limb%d", l), [][]uint64{down, a}})
	}
	exit := r.NewPoly(lv - 1)
	r.INTTModDownTo(exit, g.poly(true))
	keep("inttmoddown", exit)

	// MonomialSplitNTT, a Montgomery product by the table's run values,
	// fresh outputs and in place (sum over E, diff over O), over every
	// exponent the packing tree multiplies by — z = N/2i for groups of
	// i = 1 … N/16, runs of z ≥ 8 slots, the kernel's — then X^N = -1 (one
	// run of N slots) and one odd exponent (runs of one slot, the Go loop's).
	E, O := g.poly(true), g.poly(true)
	var exps []int
	for i := 1; i <= r.N/16; i *= 2 {
		exps = append(exps, r.N/(2*i))
	}
	exps = append(exps, r.N, 2*g.rng.Intn(r.N)+1)
	var sum, diff *ring.Poly
	for _, e := range exps {
		sum, diff = r.NewPoly(lv), r.NewPoly(lv)
		r.MonomialSplitNTT(sum, diff, E, O, e)
		keep(fmt.Sprintf("monomialsplit/e%d", e), sum, diff)
		sum, diff = E.Copy(), O.Copy()
		r.MonomialSplitNTT(sum, diff, sum, diff, e)
		keep(fmt.Sprintf("monomialsplit/e%d/aliased", e), sum, diff)
	}

	// The key-switch and row-apply MACs, their fixed operands in
	// Montgomery form. The pair MAC: two digits against their keys (the
	// key switch).
	a0, b0, a1, b1 := g.poly(true), g.poly(true), g.poly(true), g.poly(true)
	bM, aM := r.NewPoly(lv), r.NewPoly(lv)
	r.MulScalar(bM, b0, 1<<52)
	r.MulScalar(aM, b1, 1<<52)
	acc := g.poly(true)
	r.MulCoeffMontPairAdd(acc, a0, bM, a1, aM)
	keep("pair", acc)
	// The row MAC: a first-level pair, P+ and P−, streamed against every
	// chunk of a vector, its A halves in Montgomery form and its B halves
	// summed as dot products per half of the slots, and a half-empty pair
	// (P+ alone). The chunk counts straddle the groups the kernel sums
	// before a reduction — two or three chunks on the under50 primes, so 3,
	// 4, 5 and 7 take a second or third group, added into the outputs — and
	// the totals are kept as a row of {hi, lo} words, two per limb and side.
	for _, chunks := range []int{1, 2, 3, 4, 5, 7} {
		run := func(mont bool) []uint64 {
			w := make([]uint64, 0, chunks*lv*r.N)
			for c := 0; c < chunks; c++ {
				p := g.poly(true)
				if mont {
					r.MulScalar(p, p, 1<<52)
				}
				for _, row := range p.Coeffs {
					w = append(w, row...)
				}
			}
			return w
		}
		xP, xM, b, aM := run(false), run(false), run(false), run(true)
		outP, outM, one := g.poly(true), g.poly(true), g.poly(true)
		dotP, dotM, dotOne := make([][2][2]uint64, lv), make([][2][2]uint64, lv), make([][2][2]uint64, lv)
		r.MulCoeffMontDotPair(dotP, dotM, outP, outM, xP, xM, b, aM, chunks)
		r.MulCoeffMontDotPair(dotOne, nil, one, nil, xM, nil, b, aM, chunks)
		var totals []uint64
		for _, dot := range [][][2][2]uint64{dotP, dotM, dotOne} {
			for _, d := range dot {
				totals = append(totals, d[0][0], d[0][1], d[1][0], d[1][1])
			}
		}
		keep(fmt.Sprintf("dotpair/c%d", chunks), outP, outM, one)
		out = append(out, result{fmt.Sprintf("dotpair/c%d/totals", chunks), [][]uint64{totals}})
	}

	// The lone Montgomery product (the odd key-switch digit, the secret
	// key's products): fresh, accumulated and in place.
	mont := r.NewPoly(lv)
	r.MulCoeffMont(mont, a0, bM, false)
	r.MulCoeffMont(acc, a1, aM, true)
	r.MulCoeffMont(a1, a1, bM, false)
	keep("mont", mont, acc, a1)

	// The broadcast sweep: MulScalar fresh and in place (the apply's
	// â·2^52 and keygen's images), then BFV's Δ·m, lifted from t and
	// accumulated, on full rows, rows with a tail and rows holding a word
	// at or above t or q, where the kernel stops and the Go loop goes on.
	c := g.rng.Uint64()
	scaled := r.NewPoly(lv)
	r.MulScalar(scaled, a0, c)
	r.MulScalar(a0, a0, 1<<52)
	keep("scalar", scaled, a0)
	for _, t := range []uint64{65537, 1<<32 - 5} {
		for _, n := range []int{r.N, r.N - 3, 9} {
			sum := g.poly(false)
			for l := range sum.Coeffs {
				m := g.row(t)[:n]
				if n > 16 {
					m[n/2] = t + uint64(l) // the kernel stops here
				}
				r.MulScalarRow(l, sum.Coeffs[l], m, r.NewScalar(l, g.rng.Uint64()), true, t)
			}
			keep(fmt.Sprintf("scalarrow/t%d/n%d", t, n), sum)
		}
	}
	wild := g.poly(false)
	wild.Coeffs[0][r.N-1] = ^uint64(0)
	r.MulScalar(wild, wild, c)
	keep("scalar/noncanonical", wild)

	// BFV's row encode, whose body reads the row backwards: the lengths
	// about a block boundary, a row holding an entry at or above t, and a
	// t at or above 2^32, which the kernel declines.
	// A one-limb ring: the encode reads only N and t, and the wider bases
	// here are too wide for BFV's decryption constants.
	r1 := ring.MustNew(r.N, []uint64{r.Moduli[0].Q})
	for _, t := range []uint64{65537, 1<<32 - 5, 1<<32 + 15} {
		p, err := bfv.NewParams(r1, 1, 1, t)
		if err != nil {
			panic(err)
		}
		for _, n := range []int{1, 7, 8, 9, r.N - 1, r.N} {
			row := g.row(t)[:n]
			enc := make([]uint64, r.N)
			p.EncodeRowInto(enc, row, g.rng.Uint64())
			if n > 16 {
				row[n/3] = t + 1
			}
			over := make([]uint64, r.N)
			p.EncodeRowInto(over, row, 3)
			out = append(out, result{fmt.Sprintf("encoderow/t%d/n%d", t, n), [][]uint64{enc, over}})
		}
	}

	// The coefficient-domain ModDown rows (RESCALE), and the two
	// automorphism gathers, AutomorphNTT into a fresh polynomial and in
	// place.
	down := r.NewPoly(lv - 1)
	r.ModDownInto(down, g.poly(false))
	keep("moddown", down)
	a := g.poly(true)
	k := 2*g.rng.Intn(r.N) + 1
	r.AutomorphNTT(sum, a, k)
	r.AutomorphNTTAddInto(acc, a, k)
	r.AutomorphNTT(a, a, k)
	keep("automorph", sum, acc, a)
	return out
}

// checkBothModes runs runAll as dispatched and with the Go loops forced,
// and fails on the first differing row.
func checkBothModes(t *testing.T, r *ring.Ring, seed int64, fill int) {
	t.Helper()
	impl := vec.Impl()
	got := runAll(r, seed, fill)
	vec.ForceGeneric(t)
	want := runAll(r, seed, fill)
	for i := range want {
		for j, row := range want[i].rows {
			for c := range row {
				if got[i].rows[j][c] != row[c] {
					t.Fatalf("%s (fill %s, seed %d): row %d word %d: %s wrote %d, Go loop %d",
						want[i].name, fillNames[fill], seed, j, c, impl, got[i].rows[j][c], row[c])
				}
			}
		}
	}
}

func TestKernelsMatchGoLoops(t *testing.T) {
	for name, moduli := range moduliSets(t) {
		for _, n := range []int{16, 32, 64, 512, 4096} {
			r := ring.MustNew(n, moduli)
			for fill := 0; fill < numFills; fill++ {
				t.Run(fmt.Sprintf("%s/N%d/%s", name, n, fillNames[fill]), func(t *testing.T) {
					checkBothModes(t, r, int64(n)+int64(fill), fill)
				})
			}
		}
	}
	// The most stages, inputs at the top of their range, on every kind of
	// transform schedule: primes just under 2^50 that admit N=2^15 (every
	// pass reduces), 48-bit primes (the forward reduces its late passes)
	// and the CHAM basis (the inverse reduces its late passes).
	wide := map[string][]uint64{"cham": mod.ChamModuli()}
	for name, logQ := range map[string]uint{"under50": 50, "48bit": 48} {
		primes, err := mod.NTTFriendlyPrimes(logQ, 1<<15, 3)
		if err != nil {
			t.Fatal(err)
		}
		wide[name] = primes
	}
	for name, moduli := range wide {
		r := ring.MustNew(1<<15, moduli)
		t.Run(fmt.Sprintf("%s/N%d/%s", name, 1<<15, fillNames[fillTop]), func(t *testing.T) {
			checkBothModes(t, r, 1<<15, fillTop)
		})
	}
}

// TestMulMontDotForms drives the pair MAC kernel straight, with yA in
// Montgomery form and yB canonical, operand rows a stride apart with a gap
// between them: both outputs against the per-chunk sums mod's
// division-based Mul and Add give, the returned dot products against
// math/big ones, for a pair and for P+ alone. A group of chunks sums its
// products wide and reduces once, so chunks·q must stay below 2^51: the
// moduli just under and at that bound for three chunks (groups of three,
// then of two) take chunk counts 1, 2, 3, 4, 5 and 7, a group, one more
// and two groups and one. Long rows pin the lane-sum bound (2^12 products
// a lane before the wrapper folds them): 2^16 words of one chunk, two
// runs, every operand q-1 — the largest products — and uniform operands,
// whose low halves average 2^51, so the lane sums pass 2^64 between
// folds unless the runs are cut where they are.
func TestMulMontDotForms(t *testing.T) {
	if vec.Impl() != vec.ImplIFMA {
		t.Skip("no dot kernel on this host")
	}
	under, err := mod.NTTFriendlyPrimes(50, 1<<15, 1)
	if err != nil {
		t.Fatal(err)
	}
	type form struct {
		q      uint64
		n      int
		chunks []int
		fill   int
	}
	justUnder := uint64((1<<51-1)/3-1) | 1 // 3q < 2^51: groups of three
	atBound := uint64(1<<51)/3 + 1 | 1     // 3q ≥ 2^51: groups of two
	many := []int{1, 2, 3, 4, 5, 7}
	var forms []form
	for _, q := range mod.ChamModuli() {
		forms = append(forms, form{q, 64, many, fillRandom})
	}
	forms = append(forms,
		form{justUnder, 64, many, fillTop}, form{justUnder, 64, many, fillRandom},
		form{atBound, 64, many, fillTop}, form{atBound, 64, many, fillRandom},
		form{under[0], 4096, []int{3}, fillRandom},
		form{under[0], 1 << 16, []int{1}, fillTop}, form{under[0], 1 << 16, []int{1}, fillRandom},
		form{mod.ChamModuli()[2], 1 << 14, []int{3}, fillRandom})
	for _, f := range forms {
		q := f.q
		m := mod.New(q)
		qinv := q // q^-1 mod 2^52 by Newton's iteration
		for i := 0; i < 5; i++ {
			qinv *= 2 - q*qinv
		}
		qinv &= 1<<52 - 1
		for _, chunks := range f.chunks {
			n, stride := f.n, f.n+8
			g := &gen{rng: rand.New(rand.NewSource(int64(q) + int64(chunks))), fill: f.fill}
			span := chunks * stride
			xP, xM, yB, yA := g.words(span, q), g.words(span, q), g.words(span, q), g.words(span, q)
			xP[0], xM[0], yB[0], yA[0] = q-1, q-1, q-1, 0
			mA := make([]uint64, len(yA))
			for i := range yA {
				mA[i] = m.Mul(yA[i], 1<<52)
			}
			wantP, wantM := make([]uint64, n), make([]uint64, n)
			dotWant := [2]*big.Int{new(big.Int), new(big.Int)}
			for c := 0; c < chunks; c++ {
				for i := 0; i < n; i++ {
					k := c*stride + i
					wantP[i] = m.Add(wantP[i], m.Mul(xP[k], yA[k]))
					wantM[i] = m.Add(wantM[i], m.Mul(xM[k], yA[k]))
					for side, x := range [2][]uint64{xP, xM} {
						p := new(big.Int).SetUint64(x[k])
						dotWant[side].Add(dotWant[side], p.Mul(p, new(big.Int).SetUint64(yB[k])))
					}
				}
			}
			name := fmt.Sprintf("q=%d n=%d %s chunks=%d", q, n, fillNames[f.fill], chunks)
			for _, pair := range []bool{true, false} {
				outP, outM := g.words(n, q), g.words(n, q)
				var xm []uint64
				if pair {
					xm = xM
				} else {
					outM = nil
				}
				dotP, dotM, handled := vec.MulMontDotPair(q, qinv, outP, outM, xP, xm, yB, mA, stride, chunks)
				if !handled {
					t.Fatalf("%s pair %v: the kernel declined", name, pair)
				}
				check := func(side string, out, want []uint64, dot [2]uint64, dotWant *big.Int) {
					got := new(big.Int).Lsh(new(big.Int).SetUint64(dot[0]), 64)
					if got.Add(got, new(big.Int).SetUint64(dot[1])); got.Cmp(dotWant) != 0 {
						t.Fatalf("%s pair %v: %s dot is %v, want %v", name, pair, side, got, dotWant)
					}
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("%s pair %v: %s word %d is %d, want %d", name, pair, side, i, out[i], want[i])
						}
					}
				}
				check("P+", outP, wantP, dotP, dotWant[0])
				if pair {
					check("P−", outM, wantM, dotM, dotWant[1])
				} else if dotM != [2]uint64{} {
					t.Fatalf("%s: P− absent, but its dot is %v", name, dotM)
				}
			}
		}
	}
}

// TestKernelGates pins the dispatch rule: a kernel handles a row exactly
// when the host has IFMA, q < 2^50, and the length is a multiple of 8
// (N ≥ 32 for the transforms; for the split, runs of 8 or more slots that
// divide the row; for the lifted and dropping transforms, a source or
// dropped modulus read in 52 bits; for the row encode, an odd t below
// 2^32 in place of q) — and handles nothing once forced generic. The two
// kernels that return a count, MulMontConst and EncodeRow, handle a row
// when they return its length; "counts" pins where they stop short.
func TestKernelGates(t *testing.T) {
	sets := moduliSets(t)
	accel := vec.Impl() == vec.ImplIFMA
	// calls runs every kernel on zero rows of length n and reports which
	// ones handled them.
	calls := func(q uint64, n int) map[string]bool {
		z := func() []uint64 { return make([]uint64, n) }
		whole := func(done int) bool { return n > 0 && done == n }
		return map[string]bool{
			"MulMont":        vec.MulMont(q, 1, z(), z(), z(), true),
			"MulMontConst":   whole(vec.MulMontConst(q, 1, z(), z(), 0, true, 0)),
			"EncodeRow":      whole(vec.EncodeRow(65537, 1, z(), z())),
			"ForwardNTT":     vec.ForwardNTT(q, z(), z(), z()),
			"ForwardNTTLift": vec.ForwardNTTLift(q, z(), z(), z(), z(), q),
			"InverseNTT":     vec.InverseNTT(q, z(), z(), z(), 0, 0, 0, 0),
			"InverseNTTDrop": vec.InverseNTTDrop(q, z(), z(), z(), z(), z(), 0, 0, 0, 0, q, 0, 0),
			"MonomialSplit":  vec.MonomialSplit(q, 1, z(), z(), z(), z(), z(), 3),
			"MulMontDotPair": dotHandled(vec.MulMontDotPair(q, 1, z(), z(), z(), z(), z(), z(), n, 1)),
			"MulMontPair":    vec.MulMontPair(q, 1, z(), z(), z(), z(), z()),
			"ModDownRow":     vec.ModDownRow(q, z(), z(), z(), q/2, 0, 0, 0),
			"Gather":         vec.Gather(z(), z(), make([]uint32, n)),
			"GatherAdd":      vec.GatherAdd(q, z(), z(), make([]uint32, n)),
		}
	}
	expect := func(t *testing.T, got map[string]bool, want func(kernel string) bool) {
		t.Helper()
		for kernel, handled := range got {
			if handled != want(kernel) {
				t.Errorf("%s: handled = %v, want %v", kernel, handled, want(kernel))
			}
		}
	}
	all := func(string) bool { return accel }
	none := func(string) bool { return false }

	cham, under, over := sets["cham"][0], sets["under50"][0], sets["over50"][0]
	t.Run("handled", func(t *testing.T) {
		expect(t, calls(cham, 32), all)
		expect(t, calls(under, 4096), all)
	})
	t.Run("q over 2^50", func(t *testing.T) {
		// A plain copy has no modulus to exceed a lane, and the row encode
		// works mod t.
		expect(t, calls(over, 32), func(k string) bool { return accel && (k == "Gather" || k == "EncodeRow") })
	})
	t.Run("N=16", func(t *testing.T) {
		transform := map[string]bool{"ForwardNTT": true, "ForwardNTTLift": true, "InverseNTT": true, "InverseNTTDrop": true}
		expect(t, calls(cham, 16), func(k string) bool { return accel && !transform[k] })
	})
	t.Run("ragged length", func(t *testing.T) {
		expect(t, calls(cham, 36), none)
		expect(t, calls(cham, 0), none)
	})
	t.Run("short operand", func(t *testing.T) {
		z := func(n int) []uint64 { return make([]uint64, n) }
		// The row MAC's operands are outM, xP, xM, yB and yA, each row of
		// three chunks a stride of 40 words apart: 112 words.
		for i := 0; i < 5; i++ {
			o := [5][]uint64{z(32), z(112), z(112), z(112), z(112)}
			o[i] = o[i][:len(o[i])-8]
			if dotHandled(vec.MulMontDotPair(cham, 1, z(32), o[0], o[1], o[2], o[3], o[4], 40, 3)) {
				t.Errorf("MulMontDotPair accepted operand %d shorter than its rows", i)
			}
		}
		if !accel || !dotHandled(vec.MulMontDotPair(cham, 1, z(32), z(32), z(112), z(112), z(112), z(112), 40, 3)) {
			if accel {
				t.Error("MulMontDotPair declined operands that hold their rows")
			}
		}
		// Rows closer than their length, and no chunks.
		if dotHandled(vec.MulMontDotPair(cham, 1, z(32), nil, z(112), nil, z(112), z(112), 24, 3)) ||
			dotHandled(vec.MulMontDotPair(cham, 1, z(32), nil, z(112), nil, z(112), z(112), 40, 0)) {
			t.Error("MulMontDotPair accepted overlapping rows or no chunks")
		}
		// The pair MAC's operands are a0, b0, a1, b1.
		for i := 0; i < 4; i++ {
			o := [4][]uint64{z(32), z(32), z(32), z(32)}
			o[i] = z(24)
			if vec.MulMontPair(cham, 1, z(32), o[0], o[1], o[2], o[3]) {
				t.Errorf("MulMontPair accepted operand %d shorter than out", i)
			}
		}
		// The split's operands are diff, e and o, then one value per run.
		for i := 0; i < 3; i++ {
			o := [3][]uint64{z(32), z(32), z(32)}
			o[i] = z(24)
			if vec.MonomialSplit(cham, 1, z(32), o[0], o[1], o[2], z(4), 3) {
				t.Errorf("MonomialSplit accepted operand %d shorter than sum", i)
			}
		}
		if vec.MonomialSplit(cham, 1, z(32), z(32), z(32), z(32), z(3), 3) {
			t.Error("MonomialSplit accepted fewer values than runs")
		}
		if accel && !vec.MonomialSplit(cham, 1, z(32), z(32), z(32), z(32), z(4), 3) {
			t.Error("MonomialSplit declined exactly one value per run")
		}
		if vec.ModDownRow(cham, z(32), z(32), z(24), cham/2, 0, 0, 0) {
			t.Error("ModDownRow accepted a special row shorter than out")
		}
		if vec.ForwardNTTLift(cham, z(32), z(24), z(32), z(32), cham) {
			t.Error("ForwardNTTLift accepted a source row shorter than out")
		}
		for i := 0; i < 2; i++ {
			o := [2][]uint64{z(32), z(32)}
			o[i] = z(24)
			if vec.InverseNTTDrop(cham, z(32), o[0], o[1], z(32), z(32), 0, 0, 0, 0, cham, 0, 0) {
				t.Errorf("InverseNTTDrop accepted operand %d (a, sp) shorter than out", i)
			}
		}
		if vec.Gather(z(32), z(32), make([]uint32, 24)) || vec.GatherAdd(cham, z(32), z(32), make([]uint32, 24)) {
			t.Error("a gather accepted an index table shorter than out")
		}
		for i := 0; i < 2; i++ {
			o := [2][]uint64{z(32), z(32)}
			o[i] = z(24)
			if vec.MulMont(cham, 1, z(32), o[0], o[1], true) {
				t.Errorf("MulMont accepted operand %d (a, b) shorter than out", i)
			}
		}
		if vec.MulMontConst(cham, 1, z(24), z(32), 0, true, 0) != 0 {
			t.Error("MulMontConst accepted an out row shorter than a")
		}
		if vec.EncodeRow(65537, 1, z(32), z(24)) != 0 {
			t.Error("EncodeRow accepted a source row shorter than out")
		}
	})
	t.Run("counts", func(t *testing.T) {
		z := func(n int) []uint64 { return make([]uint64, n) }
		blocks := func(n int) int {
			if accel {
				return n
			}
			return 0
		}
		// Whole blocks from the front: a tail is left to the Go loop.
		for _, n := range []int{7, 9, 36} {
			if got := vec.MulMontConst(cham, 1, z(n), z(n), 0, false, 0); got != blocks(n&^7) {
				t.Errorf("MulMontConst on %d words wrote %d", n, got)
			}
			if got := vec.EncodeRow(65537, 1, z(n), z(n)); got != blocks(n&^7) {
				t.Errorf("EncodeRow on %d words wrote %d", n, got)
			}
		}
		// A word at or above the bound stops the sweep before its block:
		// q, or t with a lift; for the encode, t, at the reversed position.
		const t0 = 65537
		for _, lift := range []uint64{0, t0} {
			a := z(32)
			a[13] = cham
			if lift != 0 {
				a[13] = lift
			}
			if got := vec.MulMontConst(cham, 1, z(32), a, 0, true, lift); got != blocks(8) {
				t.Errorf("MulMontConst, t = %d, word 13 out of range: wrote %d, want the first block", lift, got)
			}
			a[13]--
			if got := vec.MulMontConst(cham, 1, z(32), a, 0, true, lift); got != blocks(32) {
				t.Errorf("MulMontConst, t = %d, word 13 at the top of its range: wrote %d", lift, got)
			}
		}
		if vec.MulMontConst(cham, 1, z(32), z(32), 0, true, cham) != 0 {
			t.Error("MulMontConst accepted a lift from t = q")
		}
		src := z(32)
		src[31-13] = t0
		if got := vec.EncodeRow(t0, 1, z(32), src); got != blocks(8) {
			t.Errorf("EncodeRow, out word 13's entry ≥ t: wrote %d, want the first block", got)
		}
		for _, tt := range []uint64{t0 - 1, 1 << 32, 1<<32 + 1, 0} {
			if vec.EncodeRow(tt, 1, z(32), z(32)) != 0 {
				t.Errorf("EncodeRow accepted t = %d (even, or not below 2^32)", tt)
			}
		}
		if got := vec.EncodeRow(1<<32-1, 1<<40, z(32), z(32)); got != blocks(32) {
			t.Errorf("EncodeRow, t = 2^32−1 and scale ≥ t: wrote %d", got)
		}
	})
	t.Run("runs", func(t *testing.T) {
		z := func(n int) []uint64 { return make([]uint64, n) }
		split := func(logRun int) bool {
			return vec.MonomialSplit(cham, 1, z(32), z(32), z(32), z(32), z(32), logRun)
		}
		// A run must fill whole vectors and divide the row.
		for _, logRun := range []int{-1, 0, 1, 2, 6, 64} {
			if split(logRun) {
				t.Errorf("MonomialSplit accepted runs of 2^%d slots in a row of 32", logRun)
			}
		}
		for _, logRun := range []int{3, 4, 5} {
			if split(logRun) != accel {
				t.Errorf("MonomialSplit, runs of 2^%d slots in a row of 32: handled = %v, want %v", logRun, !accel, accel)
			}
		}
	})
	t.Run("source modulus over 2^52", func(t *testing.T) {
		z := func() []uint64 { return make([]uint64, 32) }
		lift := func(qFrom uint64) bool { return vec.ForwardNTTLift(cham, z(), z(), z(), z(), qFrom) }
		drop := func(p uint64) bool { return vec.InverseNTTDrop(cham, z(), z(), z(), z(), z(), 0, 0, 0, 0, p, 0, 0) }
		// The lift's bound ⌈qFrom/q⌉·q must fit 52 bits: the widest source
		// is ⌊2^52/q⌋·q, one more word is past it, and so is any source that
		// cannot be read in 52 bits.
		widest := (1 << 52) / cham * cham
		if lift(widest+1) || lift(1<<52) || lift(1<<63) || lift(0) {
			t.Error("ForwardNTTLift accepted a source modulus past ⌊2^52/q⌋·q, or 0")
		}
		if vec.ModDownRow(cham, z(), z(), z(), 1<<51, 0, 0, 0) || drop(1<<52) || drop(1<<63) {
			t.Error("a dropping kernel accepted a dropped modulus of 2^52 or more")
		}
		if accel && !(lift(widest) && vec.ModDownRow(cham, z(), z(), z(), 1<<51-1, 0, 0, 0) && drop(1<<52-1)) {
			t.Error("a kernel declined the widest source or dropped modulus it reads")
		}
	})
	t.Run("forced generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		if vec.Impl() != vec.ImplGeneric {
			t.Errorf("Impl() = %q under ForceGeneric", vec.Impl())
		}
		expect(t, calls(cham, 32), none)
	})
	if (vec.Impl() == vec.ImplIFMA) != accel {
		t.Errorf("ForceGeneric did not restore the switch: Impl() = %q", vec.Impl())
	}
}

// dotHandled keeps MulMontDotPair's verdict and drops its sums.
func dotHandled(_, _ [2]uint64, handled bool) bool { return handled }

// TestGatherChecksIndices: the gathers are the only kernels that form an
// address from data. An index at or beyond the row length is never
// dereferenced — the lane reads as zero — and the call panics, where the
// Go loop would have failed its bounds check.
func TestGatherChecksIndices(t *testing.T) {
	if vec.Impl() != vec.ImplIFMA {
		t.Skip("no gather kernel on this host")
	}
	const n = 32
	q := mod.ChamModuli()[0]
	for _, bad := range []uint32{n, n + 1, 1 << 20, 1<<31 - 1, 1 << 31, 1<<32 - 1} {
		for _, at := range []int{0, 7, 13, n - 1} {
			a, perm := make([]uint64, n), make([]uint32, n)
			for i := range a {
				a[i], perm[i] = uint64(i+1), uint32(n-1-i)
			}
			perm[at] = bad
			calls := map[string]func(out []uint64){
				"Gather":    func(out []uint64) { vec.Gather(out, a, perm) },
				"GatherAdd": func(out []uint64) { vec.GatherAdd(q, out, a, perm) },
			}
			for name, call := range calls {
				out := make([]uint64, n)
				func() {
					defer func() {
						if msg, _ := recover().(string); msg != "vec: gather index out of range" {
							t.Errorf("%s, index %d at %d: recovered %q, want the out-of-range panic", name, bad, at, msg)
						}
					}()
					call(out)
				}()
				for j := range out {
					want := uint64(0)
					if j != at {
						want = a[perm[j]]
					}
					if out[j] != want {
						t.Errorf("%s, index %d at %d: out[%d] = %d, want %d", name, bad, at, j, out[j], want)
					}
				}
			}
		}
	}
}

// FuzzVecKernels is TestKernelsMatchGoLoops over fuzzer-chosen seeds,
// bases, ring degrees and fill modes.
func FuzzVecKernels(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5), uint8(fillRandom))
	f.Add(int64(2), uint8(1), uint8(9), uint8(fillTop))
	f.Add(int64(3), uint8(0), uint8(12), uint8(fillRandom))
	f.Add(int64(4), uint8(2), uint8(6), uint8(fillZero))
	f.Add(int64(5), uint8(1), uint8(8), uint8(fillEdges))
	// The transforms' worst growth at N=4096: every pass reducing (under50)
	// and the widest lazy modulus (the CHAM basis, ChamP its last limb).
	f.Add(int64(6), uint8(1), uint8(8), uint8(fillTop))
	f.Add(int64(7), uint8(0), uint8(8), uint8(fillTop))
	sets := moduliSets(f)
	names := []string{"cham", "under50", "over50"}
	rings := map[[2]uint8]*ring.Ring{}
	f.Fuzz(func(t *testing.T, seed int64, set, logN, fill uint8) {
		set, logN, fill = set%3, 4+logN%9, fill%numFills // N = 16 … 4096
		key := [2]uint8{set, logN}
		r, ok := rings[key]
		if !ok {
			r = ring.MustNew(1<<logN, sets[names[set]])
			rings[key] = r
		}
		checkBothModes(t, r, seed, int(fill))
	})
}
