package ring

import (
	"math/rand"
	"testing"
)

// The three samplers as they were written on rand.Rand's convenience
// methods and hardware division, kept verbatim as the oracle: a seed must
// keep yielding the same polynomials and leave the generator in the same
// place.

func uniformPolyOld(r *Ring, rng *rand.Rand, p *Poly) {
	for l := range p.Coeffs {
		q := r.Moduli[l].Q
		for i := range p.Coeffs[l] {
			p.Coeffs[l][i] = rng.Uint64() % q
		}
	}
	p.IsNTT = false
}

func ternaryPolyOld(r *Ring, rng *rand.Rand, p *Poly) {
	for i := 0; i < r.N; i++ {
		v := int64(rng.Intn(3)) - 1
		for l := range p.Coeffs {
			p.Coeffs[l][i] = r.Moduli[l].FromCentered(v)
		}
	}
	p.IsNTT = false
}

func cbdPolyOld(r *Ring, rng *rand.Rand, p *Poly, eta int) {
	for i := 0; i < r.N; i++ {
		v := int64(0)
		for b := 0; b < eta; b++ {
			v += int64(rng.Intn(2)) - int64(rng.Intn(2))
		}
		for l := range p.Coeffs {
			p.Coeffs[l][i] = r.Moduli[l].FromCentered(v)
		}
	}
	p.IsNTT = false
}

// weylSource is a rand.Source that is deliberately not a rand.Source64, so
// rand.Rand assembles Uint64 from two Int63 draws: a Weyl sequence through
// a 64-bit mixer.
type weylSource struct{ s uint64 }

func (w *weylSource) Seed(seed int64) { w.s = uint64(seed) }
func (w *weylSource) Int63() int64 {
	w.s += 0x9e3779b97f4a7c15
	z := w.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// TestSamplersStreamIdentical compares every limb word each sampler writes,
// and the next three words the generator yields afterwards, against the
// old loops — on the standard source and on one that is not a Source64.
func TestSamplersStreamIdentical(t *testing.T) {
	r := chamRing(t, 256)
	sources := map[string]func() rand.Source{
		"rand.NewSource": func() rand.Source { return rand.NewSource(77) },
		"not a Source64": func() rand.Source { return &weylSource{s: 77} },
	}
	samplers := map[string][2]func(*rand.Rand, *Poly){
		"UniformPoly": {func(g *rand.Rand, p *Poly) { r.UniformPoly(g, p) }, func(g *rand.Rand, p *Poly) { uniformPolyOld(r, g, p) }},
		"TernaryPoly": {func(g *rand.Rand, p *Poly) { r.TernaryPoly(g, p) }, func(g *rand.Rand, p *Poly) { ternaryPolyOld(r, g, p) }},
		"CBDPoly/21":  {func(g *rand.Rand, p *Poly) { r.CBDPoly(g, p, 21) }, func(g *rand.Rand, p *Poly) { cbdPolyOld(r, g, p, 21) }},
		"CBDPoly/1":   {func(g *rand.Rand, p *Poly) { r.CBDPoly(g, p, 1) }, func(g *rand.Rand, p *Poly) { cbdPolyOld(r, g, p, 1) }},
	}
	for srcName, newSource := range sources {
		if _, is64 := newSource().(rand.Source64); is64 != (srcName == "rand.NewSource") {
			t.Fatalf("%s: Source64 = %v", srcName, is64)
		}
		for name, pair := range samplers {
			for levels := 1; levels <= 3; levels++ {
				gNew, gOld := rand.New(newSource()), rand.New(newSource())
				got, want := r.NewPoly(levels), r.NewPoly(levels)
				got.IsNTT = true
				// Two calls in a row: the second starts mid-stream.
				for call := 0; call < 2; call++ {
					pair[0](gNew, got)
					pair[1](gOld, want)
					if !got.Equal(want) {
						t.Fatalf("%s on %s, %d limbs, call %d: polynomial differs from the old loop", name, srcName, levels, call)
					}
					for k := 0; k < 3; k++ {
						if a, b := gNew.Uint64(), gOld.Uint64(); a != b {
							t.Fatalf("%s on %s, %d limbs, call %d: generator word %d after sampling is %#x, want %#x", name, srcName, levels, call, k, a, b)
						}
					}
				}
			}
		}
	}
}
