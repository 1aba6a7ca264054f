package noise

import (
	"math/big"

	"cham/internal/core"
	"cham/internal/obs"
	"cham/internal/rlwe"
)

// Noise-budget telemetry: remaining headroom (budget − estimate, in
// bits) after each noise-relevant pipeline stage, plus the measured
// output noise when a secret key is available (chamsim publishes it).
// Negative remaining bits mean predicted decryption failure.
var (
	budgetHelp = "Analytic noise budget remaining (bits) after each pipeline stage."
	gFresh     = obs.GetGauge("cham_noise_budget_remaining_bits", budgetHelp, "stage", "fresh")
	gRowMul    = obs.GetGauge("cham_noise_budget_remaining_bits", budgetHelp, "stage", "row_mul")
	gModDown   = obs.GetGauge("cham_noise_budget_remaining_bits", budgetHelp, "stage", "mod_down")
	gPack      = obs.GetGauge("cham_noise_budget_remaining_bits", budgetHelp, "stage", "pack")
	gMeasured  = obs.GetGauge("cham_noise_measured_output_bits",
		"Measured ∞-norm noise (bits) of the last checked HMVP output.")
)

// PublishBudget publishes the per-stage remaining-budget gauges for an
// m-row tile over chunks column chunks: the analytic estimates of
// DESIGN.md §3 subtracted from the decryption budget of the basis each
// stage lives in (the augmented basis before ModDown, the normal basis
// after).
func (e *Estimator) PublishBudget(m, chunks int) {
	fresh := e.FreshSym()
	mul := e.afterRowMAC(fresh, chunks)
	res := e.AfterRescale(mul)
	pack := e.AfterPackDeferred(res, m)
	full := e.Budget(e.P.R.Levels())
	normal := e.Budget(e.P.NormalLevels)
	gFresh.Set(full - fresh)
	gRowMul.Set(full - mul)
	gModDown.Set(normal - res)
	gPack.Set(normal - pack)
}

// MeasureResult returns the worst-case measured noise (bits) across the
// row slots of a packed HMVP result, given the secret key and the
// expected product. The packing factor is pre-compensated in the row
// encoding, so each slot's phase is round(Q·lift(want_r)/t) + noise —
// the point decryption rounds to. (Δ·lift(want_r), with Δ = ⌊Q/t⌋, is
// off it by (Q mod t)·lift(want_r)/t, up to (Q mod t)/2: a scaling
// remainder, not noise.)
func (e *Estimator) MeasureResult(res *core.Result, sk *rlwe.SecretKey, want []uint64) float64 {
	p := e.P
	q := p.R.Modulus(p.NormalLevels)
	half := new(big.Int).Rsh(q, 1)
	twoT := new(big.Int).SetUint64(2 * p.T.Q)
	measured := 0.0
	diff := new(big.Int)
	for ti, ct := range res.Packed {
		t := res.Tile(ti)
		vals := p.R.ToBigIntCentered(p.Phase(ct, sk), p.NormalLevels)
		for i := range t.Rows {
			// round(Q·lift(want)/t) = ⌊(2·Q·lift + t) / 2t⌋
			exp := new(big.Int).Mul(q, big.NewInt(2*p.T.CenterLift(want[t.Base+i])))
			exp.Add(exp, new(big.Int).SetUint64(p.T.Q)).Div(exp, twoT)
			diff.Sub(vals[t.Slot(i)], exp)
			diff.Mod(diff, q)
			if diff.Cmp(half) > 0 {
				diff.Sub(diff, q)
			}
			if b := float64(new(big.Int).Abs(diff).BitLen()); b > measured {
				measured = b
			}
		}
	}
	return measured
}

// PublishMeasured records the measured output noise gauge.
func PublishMeasured(bits float64) { gMeasured.Set(bits) }
