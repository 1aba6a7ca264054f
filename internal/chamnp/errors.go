package chamnp

import "errors"

// Typed sentinels for every misuse class of the array API. All error
// returns wrap one of these (or a core sentinel such as
// core.ErrVectorLength bubbling up from a backend) with %w, so callers
// branch with errors.Is and the telemetry layer counts failures per
// class (cham_np_errors_total).
var (
	// ErrEmpty: an array with no rows or no columns.
	ErrEmpty = errors.New("chamnp: empty array")
	// ErrShape: operand dimensions or layouts do not line up.
	ErrShape = errors.New("chamnp: shape mismatch")
	// ErrRagged: rows of differing lengths in cleartext input.
	ErrRagged = errors.New("chamnp: ragged input")
	// ErrPackedOperand: the operation needs a dense (coefficient-encoded)
	// operand, but this array is a packed HMVP output. Re-encrypt it
	// (e.g. through SquareRecrypt or Recrypt) first.
	ErrPackedOperand = errors.New("chamnp: operand is packed, not dense")
	// ErrNoiseBudget: the analytic noise bound of the op's output would
	// exceed the decryption budget — the result would decrypt to garbage.
	ErrNoiseBudget = errors.New("chamnp: predicted noise exceeds the decryption budget")
)
