// Package noise provides an analytic noise-budget estimator for the CHAM
// pipeline, implementing the §II-F parameter reasoning (DESIGN.md §3):
// fresh encryption noise, plaintext-multiplication growth, the rescale
// division by the special modulus, hybrid key-switch noise, and the
// packing tree's doubling. Tests validate every estimate against noise
// measured on real ciphertexts, so the parameter headroom the paper
// claims ("reduce the noise from 30 bit to 26 bit") is checked rather
// than asserted.
//
// Estimates are high-probability bounds in bits (log2 of the ∞-norm),
// using the standard sub-Gaussian heuristics: a sum of k independent
// terms of magnitude B contributes ≈ B·sqrt(k) with a small safety
// factor.
package noise

import (
	"math"

	"cham/internal/bfv"
)

// Estimator predicts noise magnitudes for a parameter set.
type Estimator struct {
	P bfv.Params
	// Sigma is the noise standard deviation (CBD eta/2 variance).
	Sigma float64
	// Slack is the safety factor (in standard deviations) for
	// high-probability bounds; 6 keeps failures out of test runs.
	Slack float64
}

// New returns an estimator for the parameter set.
func New(p bfv.Params) *Estimator {
	return &Estimator{P: p, Sigma: math.Sqrt(float64(p.Eta) / 2), Slack: 6}
}

func log2(x float64) float64 { return math.Log2(x) }

// n returns the ring degree as float.
func (e *Estimator) n() float64 { return float64(e.P.R.N) }

// Budget returns log2(Δ/2) at the given level count: the noise ceiling
// for correct decryption.
func (e *Estimator) Budget(levels int) float64 {
	d := e.P.Delta(levels)
	return float64(d.BitLen()) - 1
}

// FreshSym bounds fresh symmetric-encryption noise: e + small rounding.
func (e *Estimator) FreshSym() float64 {
	return log2(e.Slack * e.Sigma)
}

// AfterMulPlain bounds noise after multiplying a ciphertext with noise
// 2^base by a plaintext with centred coefficients bounded by ptBound:
// the noise convolves with the plaintext, ≈ e·ptBound·sqrt(N).
func (e *Estimator) AfterMulPlain(base, ptBound float64) float64 {
	return base + log2(ptBound*math.Sqrt(e.n()))
}

// AfterRescale bounds noise after dividing by the special modulus p:
// the carried noise shrinks by p; rounding adds ≈ (1+‖s‖₁)/2 ≈ sqrt(N)
// with ternary s.
func (e *Estimator) AfterRescale(base float64) float64 {
	p := float64(e.P.R.Moduli[e.P.R.Levels()-1].Q)
	carried := base - log2(p)
	round := log2(e.Slack * math.Sqrt(e.n()) / 2)
	return maxF(carried, round) + 0.5 // +0.5: the two terms add
}

// KeySwitchAdditive bounds the additive noise of one hybrid key switch:
// dnum digits of magnitude ≤ q_max/2 convolved with key noise, divided by
// the special modulus, plus the ModDown rounding.
func (e *Estimator) KeySwitchAdditive() float64 {
	qMax := 0.0
	for _, m := range e.P.R.Moduli[:e.P.NormalLevels] {
		if q := float64(m.Q); q > qMax {
			qMax = q
		}
	}
	p := float64(e.P.R.Moduli[e.P.R.Levels()-1].Q)
	dnum := float64(e.P.NormalLevels)
	prod := (qMax / 2) * e.Sigma * math.Sqrt(e.n()) * math.Sqrt(dnum)
	round := math.Sqrt(e.n()) / 2
	return log2(e.Slack * (prod/p + round))
}

// KeySwitchAdditiveDeferred bounds the per-merge additive noise of the
// NTT-resident tree's key switch (DESIGN.md §12), where the b-part
// division is deferred to the tree flush. A merge then contributes the
// digit convolution (division by p is linear, so it may be accounted per
// merge even though it runs once) plus only the a-part ModDown rounding:
// the rounding error e_a is uniform in [-1/2,1/2] (variance 1/12) and
// multiplies the ternary secret, ‖e_a·s‖ ≈ sqrt(N·(2/3)·(1/12)) =
// sqrt(N/18) — slightly tighter than the eager bound's sqrt(N)/2, which
// also absorbs the per-merge b rounding.
func (e *Estimator) KeySwitchAdditiveDeferred() float64 {
	qMax := 0.0
	for _, m := range e.P.R.Moduli[:e.P.NormalLevels] {
		if q := float64(m.Q); q > qMax {
			qMax = q
		}
	}
	p := float64(e.P.R.Moduli[e.P.R.Levels()-1].Q)
	dnum := float64(e.P.NormalLevels)
	prod := (qMax / 2) * e.Sigma * math.Sqrt(e.n()) * math.Sqrt(dnum)
	roundA := math.Sqrt(e.n() / 18)
	return log2(e.Slack * (prod/p + roundA))
}

// AfterPackDeferred bounds noise after the NTT-resident deferred tree
// (DESIGN.md §12): each tree level doubles the carried noise and the
// per-merge key-switch noise, but each merge charges only the deferred
// (a-side) rounding, and the single flush division adds one b-side
// rounding of at most 1/2 per coefficient — an O(1) term with no secret
// multiplication, since only the b polynomial is rounded. Deferring
// ModDown never costs noise: the bound is at most that of a tree that
// rescales after every merge (TestDeferredModDownInvariant).
func (e *Estimator) AfterPackDeferred(base float64, m int) float64 {
	levels := 0
	for v := 1; v < m; v <<= 1 {
		levels++
	}
	carried := base + float64(levels) // ×2 per level
	ksTotal := e.KeySwitchAdditiveDeferred() + float64(levels)
	flush := log2(e.Slack / 2) // single deferred b division rounds by ≤ 1/2
	return log2(math.Pow(2, carried) + math.Pow(2, ksTotal) + math.Pow(2, flush))
}

// HMVPOutput bounds the end-to-end noise of Alg. 1 with an m-row tile and
// full-range plaintext rows (bounded by t/2), using the deferred tree
// bound the pipeline actually runs.
func (e *Estimator) HMVPOutput(m int) float64 {
	fresh := e.FreshSym()
	mul := e.AfterMulPlain(fresh, float64(e.P.T.Q)/2)
	res := e.AfterRescale(mul)
	return e.AfterPackDeferred(res, m)
}

// HMVPPredictor returns a closure predicting the packed output noise of
// an HMVP over an m-row tile (the AfterMulPlain→AfterRescale→
// AfterPackDeferred chain of HMVPOutput) as a function of the INPUT
// ciphertext's noise bound. All parameter-dependent terms — the
// full-range plaintext bound t/2, the rescale constants, the deferred
// tree's key-switch total — are precomputed, so the closure itself
// performs no heap allocation: hot paths (the chamnp MatMul gate) can
// re-check the budget per call without breaking their 0-alloc warm
// invariant. Tests pin it bit-equal to the composed methods.
func (e *Estimator) HMVPPredictor(m int) func(base float64) float64 {
	mulBits := log2(float64(e.P.T.Q) / 2 * math.Sqrt(e.n()))
	logP := log2(float64(e.P.R.Moduli[e.P.R.Levels()-1].Q))
	round := log2(e.Slack * math.Sqrt(e.n()) / 2)
	levels := 0
	for v := 1; v < m; v <<= 1 {
		levels++
	}
	ksTotal := e.KeySwitchAdditiveDeferred() + float64(levels)
	flush := log2(e.Slack / 2)
	lv := float64(levels)
	return func(base float64) float64 {
		rescaled := maxF(base+mulBits-logP, round) + 0.5
		return log2(math.Pow(2, rescaled+lv) + math.Pow(2, ksTotal) + math.Pow(2, flush))
	}
}

// MaxPackRows returns the largest power-of-two tile that keeps the
// end-to-end HMVP noise below the decryption budget.
func (e *Estimator) MaxPackRows() int {
	best := 0
	for m := 1; m <= e.P.R.N; m <<= 1 {
		if e.HMVPOutput(m) < e.Budget(e.P.NormalLevels) {
			best = m
		}
	}
	return best
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
