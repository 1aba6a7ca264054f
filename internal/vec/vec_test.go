package vec_test

// Every kernel against its own Go loop. The loops live next to their
// callers (ntt, ring), so the harness drives each caller twice on the same
// inputs — once as dispatched on this host, once with the switch forced
// off — and requires identical output rows. On a host without AVX-512 IFMA
// both runs take the Go loop and the comparison is vacuous; the gate tests
// below still apply.

import (
	"fmt"
	"math/rand"
	"testing"

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
func (g *gen) row(bound uint64) []uint64 {
	a := make([]uint64, g.r.N)
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

	// Transforms: single rows and the paired batch entry points, inputs up
	// to 4q-1 forward and 2q-1 inverse.
	for l, tab := range r.Tables {
		q := r.Moduli[l].Q
		a, b, c := g.row(4*q), g.row(4*q), g.row(4*q)
		tab.ForwardLazy(a)
		tab.ForwardBatch(b, c)
		out = append(out, result{fmt.Sprintf("forward/limb%d", l), [][]uint64{a, b, c}})
		a, b, c = g.row(2*q), g.row(2*q), g.row(2*q)
		tab.InverseLazy(a)
		tab.InverseBatch(b, c)
		out = append(out, result{fmt.Sprintf("inverse/limb%d", l), [][]uint64{a, b, c}})
	}

	// MonomialSplitNTT, fresh outputs and sum aliasing E.
	E, O := g.poly(true), g.poly(true)
	e := g.rng.Intn(2 * r.N)
	sum, diff := r.NewPoly(lv), r.NewPoly(lv)
	r.MonomialSplitNTT(sum, diff, E, O, e)
	keep("monomialsplit", sum, diff)
	diff = r.NewPoly(lv)
	r.MonomialSplitNTT(E, diff, E, O, e)
	keep("monomialsplit/aliased", E, diff)

	// The key-switch and row-apply MACs.
	a0, b0, a1, b1 := g.poly(true), g.poly(true), g.poly(true), g.poly(true)
	s0, s1 := r.ShoupPrecompPoly(b0), r.ShoupPrecompPoly(b1)
	acc := g.poly(true)
	r.MulCoeffShoupPair(sum, a0, b0, s0, a1, b1, s1)
	r.MulCoeffShoupPairAdd(acc, a0, b0, s0, a1, b1, s1)
	keep("pair", sum, acc)
	outB, outA := r.NewPoly(lv), r.NewPoly(lv)
	accB, accA := g.poly(true), g.poly(true)
	r.MulCoeffShoupDual(outB, outA, a0, a1, b0, s0)
	r.MulCoeffShoupDualAdd(accB, accA, a0, a1, b0, s0)
	keep("dual", outB, outA, accB, accA)

	// The merge's other sweeps: the centred lift between every pair of
	// limbs (the edges fill puts half-1, half, half+1 and q-1 of the source
	// modulus in every lane), the ModDown rows, and the two automorphism
	// gathers, AutomorphNTT into a fresh polynomial and in place.
	for l := range r.Moduli {
		for from := range r.Moduli {
			if l == from {
				continue
			}
			row := make([]uint64, r.N)
			r.CentredLiftRow(row, g.row(r.Moduli[from].Q), l, from)
			out = append(out, result{fmt.Sprintf("centredlift/limb%d<-limb%d", l, from), [][]uint64{row}})
		}
	}
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
}

// TestKernelGates pins the dispatch rule: a kernel handles a row exactly
// when the host has IFMA, q < 2^50, and the length is a multiple of 8
// (N ≥ 32 for the transforms) — and handles nothing once forced generic.
func TestKernelGates(t *testing.T) {
	sets := moduliSets(t)
	accel := vec.Impl() == vec.ImplIFMA
	// calls runs every kernel on zero rows of length n and reports which
	// ones handled them.
	calls := func(q uint64, n int) map[string]bool {
		z := func() []uint64 { return make([]uint64, n) }
		return map[string]bool{
			"ForwardNTT":    vec.ForwardNTT(q, z(), z(), z()),
			"InverseNTT":    vec.InverseNTT(q, z(), z(), z(), 0, 0, 0, 0),
			"MonomialSplit": vec.MonomialSplit(q, z(), z(), z(), z(), z(), z()),
			"MulShoupPair":  vec.MulShoupPair(q, z(), z(), z(), z(), z(), z(), z(), true),
			"MulShoupDual":  vec.MulShoupDual(q, z(), z(), z(), z(), z(), z(), true),
			"CentredLift":   vec.CentredLift(q, z(), z(), q/2, 0),
			"ModDownRow":    vec.ModDownRow(q, z(), z(), z(), q/2, 0, 0, 0),
			"Gather":        vec.Gather(z(), z(), make([]uint32, n)),
			"GatherAdd":     vec.GatherAdd(q, z(), z(), make([]uint32, n)),
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
		// A plain copy has no modulus to exceed a lane.
		expect(t, calls(over, 32), func(k string) bool { return accel && k == "Gather" })
	})
	t.Run("N=16", func(t *testing.T) {
		expect(t, calls(cham, 16), func(k string) bool { return accel && k != "ForwardNTT" && k != "InverseNTT" })
	})
	t.Run("ragged length", func(t *testing.T) {
		expect(t, calls(cham, 36), none)
		expect(t, calls(cham, 0), none)
	})
	t.Run("short operand", func(t *testing.T) {
		z := func(n int) []uint64 { return make([]uint64, n) }
		if vec.MulShoupDual(cham, z(32), z(32), z(32), z(32), z(32), z(24), true) {
			t.Error("MulShoupDual accepted an operand shorter than out")
		}
		if vec.ModDownRow(cham, z(32), z(32), z(24), cham/2, 0, 0, 0) {
			t.Error("ModDownRow accepted a special row shorter than out")
		}
		if vec.Gather(z(32), z(32), make([]uint32, 24)) || vec.GatherAdd(cham, z(32), z(32), make([]uint32, 24)) {
			t.Error("a gather accepted an index table shorter than out")
		}
	})
	t.Run("source modulus over 2^52", func(t *testing.T) {
		z := func() []uint64 { return make([]uint64, 32) }
		if vec.CentredLift(cham, z(), z(), 1<<51, 0) || vec.ModDownRow(cham, z(), z(), z(), 1<<51, 0, 0, 0) {
			t.Error("a lifting kernel accepted half >= 2^51")
		}
		if accel && !(vec.CentredLift(cham, z(), z(), 1<<51-1, 0) && vec.ModDownRow(cham, z(), z(), z(), 1<<51-1, 0, 0, 0)) {
			t.Error("a lifting kernel declined half = 2^51-1")
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
