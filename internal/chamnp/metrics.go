package chamnp

import (
	"errors"
	"time"

	"cham/internal/obs"
)

// Telemetry handles for the array tier, resolved once at package init.
// Per-op latency lives in its own cham_np_op_seconds family; the HMVP
// kernels running underneath MatMul keep reporting into the
// existing cham_hmvp_stage_seconds taxonomy (and the apply/error
// families) exactly as a direct core call would — chamnp adds a view,
// it does not fork the stage accounting.
const (
	opArray = iota
	opDecrypt
	opAddVector
	opSquare
	opMatMul
	numOps
)

var opNames = [numOps]string{"array", "decrypt", "add_vector", "square_recrypt", "matmul"}

var (
	opHists = func() [numOps]*obs.Histogram {
		var hs [numOps]*obs.Histogram
		for i := range hs {
			hs[i] = obs.GetHistogram("cham_np_op_seconds",
				"chamnp array-op latency.", obs.DefBuckets, "op", opNames[i])
		}
		return hs
	}()
	opCounts = func() [numOps]*obs.Counter {
		var cs [numOps]*obs.Counter
		for i := range cs {
			cs[i] = obs.GetCounter("cham_np_ops_total",
				"Completed chamnp array ops.", "op", opNames[i])
		}
		return cs
	}()
	mLanes = obs.GetCounter("cham_np_lanes_total",
		"HMVP lanes (column blocks) driven through MatMul backends.")
	gNoise = obs.GetGauge("cham_np_noise_bits",
		"Analytic noise bound (bits) of the last chamnp op's output.")
)

// opTimer is one op's telemetry window, opened by startOp and closed by
// done. It is a value, so opening and closing one never allocates.
type opTimer struct {
	op int
	t0 time.Time
}

func startOp(op int) opTimer { return opTimer{op: op, t0: time.Now()} }

// done publishes the op's latency, count, and the output's noise gauge.
func (t opTimer) done(out *EncMatrix) {
	opHists[t.op].Observe(time.Since(t.t0).Seconds())
	opCounts[t.op].Inc()
	if out != nil {
		gNoise.Set(out.noise)
	}
}

const npErrHelp = "chamnp API errors by misuse class."

var npErrClasses = []struct {
	sentinel error
	counter  *obs.Counter
}{
	{ErrEmpty, obs.GetCounter("cham_np_errors_total", npErrHelp, "class", "empty")},
	{ErrShape, obs.GetCounter("cham_np_errors_total", npErrHelp, "class", "shape")},
	{ErrRagged, obs.GetCounter("cham_np_errors_total", npErrHelp, "class", "ragged")},
	{ErrPackedOperand, obs.GetCounter("cham_np_errors_total", npErrHelp, "class", "packed_operand")},
	{ErrNoiseBudget, obs.GetCounter("cham_np_errors_total", npErrHelp, "class", "noise_budget")},
}

var npErrOther = obs.GetCounter("cham_np_errors_total", npErrHelp, "class", "other")

// countNpErr attributes err to its class counter and passes it through
// unchanged; nil-safe. Backend errors (core sentinels) land in "other"
// here but are already counted per class by cham_hmvp_errors_total.
func countNpErr(err error) error {
	if err == nil {
		return err
	}
	for _, ec := range npErrClasses {
		if errors.Is(err, ec.sentinel) {
			ec.counter.Inc()
			return err
		}
	}
	npErrOther.Inc()
	return err
}
