package ring

import (
	"math"
	"math/rand"
	"testing"
)

// The oracles. UniformPoly and TernaryPoly are held to the loops they were
// first written as, on rand.Rand's convenience methods and hardware
// division, kept verbatim: a seed must keep yielding the same polynomials
// and leave the generator in the same place. CBDPoly is held to its
// one-word definition written bit by bit.

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

// cbdPolyOneWord draws one Uint64 w per coefficient and adds bit b of w
// and subtracts bit eta+b, for b < eta.
func cbdPolyOneWord(r *Ring, rng *rand.Rand, p *Poly, eta int) {
	for i := 0; i < r.N; i++ {
		w := rng.Uint64()
		v := int64(0)
		for b := 0; b < eta; b++ {
			v += int64(w >> b & 1)
			v -= int64(w >> (eta + b) & 1)
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

// streamSources are the two generators the stream contract is checked on:
// the standard source and one that is not a Source64.
var streamSources = map[string]func() rand.Source{
	"rand.NewSource": func() rand.Source { return rand.NewSource(77) },
	"not a Source64": func() rand.Source { return &weylSource{s: 77} },
}

// TestSamplersStreamIdentical compares every limb word each sampler writes,
// and the next three words the generator yields afterwards, against its
// oracle — on the standard source and on one that is not a Source64.
func TestSamplersStreamIdentical(t *testing.T) {
	r := chamRing(t, 256)
	samplers := map[string][2]func(*rand.Rand, *Poly){
		"UniformPoly": {func(g *rand.Rand, p *Poly) { r.UniformPoly(g, p) }, func(g *rand.Rand, p *Poly) { uniformPolyOld(r, g, p) }},
		"TernaryPoly": {func(g *rand.Rand, p *Poly) { r.TernaryPoly(g, p) }, func(g *rand.Rand, p *Poly) { ternaryPolyOld(r, g, p) }},
		"CBDPoly/21":  {func(g *rand.Rand, p *Poly) { r.CBDPoly(g, p, 21) }, func(g *rand.Rand, p *Poly) { cbdPolyOneWord(r, g, p, 21) }},
		"CBDPoly/1":   {func(g *rand.Rand, p *Poly) { r.CBDPoly(g, p, 1) }, func(g *rand.Rand, p *Poly) { cbdPolyOneWord(r, g, p, 1) }},
		"CBDPoly/32":  {func(g *rand.Rand, p *Poly) { r.CBDPoly(g, p, 32) }, func(g *rand.Rand, p *Poly) { cbdPolyOneWord(r, g, p, 32) }},
	}
	for srcName, newSource := range streamSources {
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
						t.Fatalf("%s on %s, %d limbs, call %d: polynomial differs from the oracle", name, srcName, levels, call)
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

// TestCBDPolyDrawsOneWordPerCoefficient: whatever eta and the limb count,
// a CBDPoly call leaves the generator where N plain Uint64 draws leave it.
func TestCBDPolyDrawsOneWordPerCoefficient(t *testing.T) {
	r := chamRing(t, 256)
	for srcName, newSource := range streamSources {
		for _, eta := range []int{1, 21, 32} {
			for levels := 1; levels <= 3; levels++ {
				g, skip := rand.New(newSource()), rand.New(newSource())
				p := r.NewPoly(levels)
				for call := 0; call < 2; call++ {
					r.CBDPoly(g, p, eta)
					for k := 0; k < r.N; k++ {
						skip.Uint64()
					}
					if a, b := g.Uint64(), skip.Uint64(); a != b {
						t.Fatalf("eta=%d on %s, %d limbs, call %d: next word %#x, want %#x after %d Uint64 draws", eta, srcName, levels, call, a, b, r.N)
					}
				}
			}
		}
	}
}

// TestCBDPolyDistribution checks CBD(eta) over 2^16 draws at the smallest,
// the production and the largest eta: every value within [−eta, eta], the
// same in every limb, mean within 5 standard errors of 0 and variance
// within 3 % of eta/2 (≥ 5 standard errors of the sample variance at each
// eta).
func TestCBDPolyDistribution(t *testing.T) {
	r := chamRing(t, 256)
	const draws = 1 << 16
	for _, eta := range []int{1, 21, 32} {
		rng := rand.New(rand.NewSource(int64(eta)))
		p := r.NewPoly(3)
		var sum, sumSq float64
		for n := 0; n < draws; n += r.N {
			r.CBDPoly(rng, p, eta)
			for i := 0; i < r.N; i++ {
				v := r.Moduli[0].CenterLift(p.Coeffs[0][i])
				if v < -int64(eta) || v > int64(eta) {
					t.Fatalf("eta=%d: coefficient %d outside [−eta, eta]", eta, v)
				}
				for l := 1; l < 3; l++ {
					if r.Moduli[l].CenterLift(p.Coeffs[l][i]) != v {
						t.Fatalf("eta=%d: limb %d disagrees with limb 0 at coefficient %d", eta, l, i)
					}
				}
				sum += float64(v)
				sumSq += float64(v * v)
			}
		}
		mean := sum / draws
		variance := sumSq/draws - mean*mean
		want := float64(eta) / 2
		if se := math.Sqrt(want / draws); math.Abs(mean) > 5*se {
			t.Errorf("eta=%d: mean %.4f, want |mean| ≤ %.4f", eta, mean, 5*se)
		}
		if math.Abs(variance-want) > 0.03*want {
			t.Errorf("eta=%d: variance %.4f, want %.4f ± 3 %%", eta, variance, want)
		}
		t.Logf("eta=%d: mean %+.4f, variance %.4f (want %.1f)", eta, mean, variance, want)
	}
}
