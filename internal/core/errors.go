package core

import "errors"

// Typed sentinel errors for every misuse class of the HMVP API. All
// error returns from Prepare/Apply/ApplyInto/MatVec wrap one of these
// with %w, so callers branch with errors.Is and the telemetry layer
// counts failures per class (cham_hmvp_errors_total).
var (
	// ErrEmptyMatrix: a matrix with no rows or no columns.
	ErrEmptyMatrix = errors.New("core: empty matrix")
	// ErrRaggedMatrix: rows of differing lengths.
	ErrRaggedMatrix = errors.New("core: ragged matrix")
	// ErrVectorLength: the encrypted vector's chunk count does not match
	// the matrix's column chunks.
	ErrVectorLength = errors.New("core: vector length mismatch")
	// ErrVectorBasis: a vector ciphertext's parts do not both carry the
	// augmented (full) RNS basis at the ring degree EncryptVector produces.
	ErrVectorBasis = errors.New("core: vector ciphertext lacks the augmented basis")
	// ErrResultShape: a Result passed to ApplyInto has the wrong tile
	// count, nil tiles, or mis-shaped polynomials; allocate with NewResult.
	ErrResultShape = errors.New("core: result shape mismatch")
	// ErrTileTooLarge: a row tile needs packing keys beyond Keys.M.
	ErrTileTooLarge = errors.New("core: tile exceeds packing keys")
	// ErrTileIndex: a tile index outside [0, Tiles()).
	ErrTileIndex = errors.New("core: tile index out of range")
	// ErrTileNotPrepared: ApplyTiles/ApplyInto touched a tile that was
	// skipped at PrepareTiles time and not filled in by PrepareTile since.
	ErrTileNotPrepared = errors.New("core: tile not prepared")
)
