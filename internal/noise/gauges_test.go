package noise

import (
	"testing"

	"cham/internal/core"
)

// TestPublishBudgetAndMeasure: the analytic stage gauges show positive
// headroom at CHAM parameters, and the measured output noise of a real
// HMVP sits below the analytic pack-stage estimate.
func TestPublishBudgetAndMeasure(t *testing.T) {
	p, est, rng, sk := testSetup(t, 256)
	const m = 64
	est.PublishBudget(m, 1)
	for _, g := range []struct {
		name  string
		gauge interface{ Value() float64 }
	}{
		{"fresh", gFresh}, {"row_mul", gRowMul}, {"mod_down", gModDown}, {"pack", gPack},
	} {
		if v := g.gauge.Value(); v <= 0 {
			t.Errorf("stage %s: remaining budget %.1f bits, want positive headroom", g.name, v)
		}
	}

	ev, err := core.NewEvaluator(p, rng, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	A := make([][]uint64, m)
	for i := range A {
		A[i] = make([]uint64, p.R.N)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % p.T.Q
		}
	}
	v := make([]uint64, p.R.N)
	for j := range v {
		v[j] = rng.Uint64() % p.T.Q
	}
	res, err := ev.MatVec(A, core.EncryptVector(p, rng, sk, v))
	if err != nil {
		t.Fatal(err)
	}
	want := core.PlainMatVec(p, A, v)
	measured := est.MeasureResult(res, sk, want)
	PublishMeasured(measured)
	predicted := est.HMVPOutput(m, 1)
	if measured > predicted {
		t.Errorf("measured output noise %.1f bits exceeds analytic bound %.1f", measured, predicted)
	}
	if measured <= 0 {
		t.Error("measured output noise is zero — measurement is not seeing the ciphertext")
	}
	if gMeasured.Value() != measured {
		t.Error("measured gauge not published")
	}
}
