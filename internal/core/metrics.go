package core

import (
	"errors"

	"cham/internal/obs"
)

// Telemetry handles for the HMVP evaluator, resolved once at package
// init so hot-path call sites never touch the registry. Per-stage
// latency lives in obs's cham_hmvp_stage_seconds family (the shared
// taxonomy); this file adds the end-to-end and error views.
var (
	mApplySec = obs.GetHistogram("cham_hmvp_apply_seconds",
		"End-to-end per-vector HMVP latency.", obs.DefBuckets)
	mPrepareSec = obs.GetHistogram("cham_hmvp_prepare_seconds",
		"One-time PreparedMatrix build latency (row encode+lift+NTT).", obs.DefBuckets)
	mApplies = obs.GetCounter("cham_hmvp_applies_total",
		"Completed HMVP applies.")
	mRows = obs.GetCounter("cham_hmvp_rows_total",
		"Row dot products computed across all applies.")
)

const errHelp = "HMVP API errors by misuse class."

// errClasses maps each sentinel to its counter; countErr walks it in
// order, so put more specific sentinels first if any ever overlap.
var errClasses = []struct {
	sentinel error
	counter  *obs.Counter
}{
	{ErrEmptyMatrix, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "empty_matrix")},
	{ErrRaggedMatrix, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "ragged_matrix")},
	{ErrVectorLength, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "vector_length")},
	{ErrVectorBasis, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "vector_basis")},
	{ErrResultShape, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "result_shape")},
	{ErrTileTooLarge, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "tile_too_large")},
	{ErrTileIndex, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "tile_index")},
	{ErrTileNotPrepared, obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "tile_not_prepared")},
}

var errOther = obs.GetCounter("cham_hmvp_errors_total", errHelp, "class", "other")

// countErr attributes err to its class counter and passes it through
// unchanged; nil-safe.
func countErr(err error) error {
	if err == nil {
		return err
	}
	for _, ec := range errClasses {
		if errors.Is(err, ec.sentinel) {
			ec.counter.Inc()
			return err
		}
	}
	errOther.Inc()
	return err
}
