package core

// Batched apply: one PreparedMatrix driving a whole batch of encrypted
// vectors — the column blocks of an encrypted matrix-matrix product.
// The per-matrix work (Prepare) is already hoisted; this surface also
// hoists the per-call bookkeeping (validation, scratch checkout, N^-1
// caching) out of the per-vector loop, and validates the ENTIRE batch
// before any transform runs: a short batch, a missing column block, or
// a misshaped result tile fails with a typed sentinel up front instead
// of a panic (or partial work) halfway through the fan-out.

import (
	"fmt"
	"time"

	"cham/internal/obs"
	"cham/internal/rlwe"
)

// ApplyBatch computes A·v_k for every vector of the batch, allocating
// fresh Results. vecs[k] must each come from EncryptVector with the
// matrix's column count.
func (pm *PreparedMatrix) ApplyBatch(vecs [][]*rlwe.Ciphertext) ([]*Result, error) {
	res := make([]*Result, len(vecs))
	for k := range res {
		res[k] = pm.NewResult()
	}
	if err := pm.ApplyBatchInto(res, vecs); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyBatchInto is ApplyBatch writing into caller-owned Results (from
// NewResult, one per vector). Scratch is checked out once for the whole
// batch, so a warm call performs zero heap allocations regardless of the
// batch size — the invariant the chamnp MatMul path is gated on.
func (pm *PreparedMatrix) ApplyBatchInto(res []*Result, vecs [][]*rlwe.Ciphertext) error {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	if err := pm.applyBatchInto(res, vecs); err != nil {
		return countErr(err)
	}
	if on {
		mApplyPrepared.Observe(time.Since(t0).Seconds())
		mAppliesPrepared.Add(uint64(len(vecs)))
		mRows.Add(uint64(pm.m * len(vecs)))
	}
	return nil
}

func (pm *PreparedMatrix) applyBatchInto(res []*Result, vecs [][]*rlwe.Ciphertext) error {
	e := pm.ev
	if len(vecs) == 0 {
		return fmt.Errorf("%w: empty batch", ErrVectorLength)
	}
	if len(res) != len(vecs) {
		return fmt.Errorf("%w: batch has %d vectors but %d result slots", ErrResultShape, len(vecs), len(res))
	}
	// Validate every column block and every result tile before any
	// transform runs; the %w wrapping keeps errors.Is on the sentinels
	// working through the per-index context.
	for k, ctV := range vecs {
		if err := pm.validateVector(ctV); err != nil {
			return fmt.Errorf("batch vector %d: %w", k, err)
		}
		if err := pm.validateResult(res[k]); err != nil {
			return fmt.Errorf("batch result %d: %w", k, err)
		}
	}
	for ti, t := range pm.tiles {
		if t == nil {
			return fmt.Errorf("%w: tile %d (prepared sparsely; use ApplyTiles or PrepareTile)", ErrTileNotPrepared, ti)
		}
	}
	e.ensureInvN()
	sc := e.getApplyScratch(pm.chunks, pm.maxPad)
	defer e.putApplyScratch(sc)
	for k, ctV := range vecs {
		if err := e.loadVector(sc, ctV); err != nil {
			return err
		}
		for ti, t := range pm.tiles {
			if err := e.tileApply(res[k].Packed[ti], sc, t, nil, 0, t.rows, t.mPad); err != nil {
				return err
			}
		}
		res[k].M, res[k].N = pm.m, e.P.R.N
	}
	return nil
}

// validateVector checks one encrypted vector's chunk count and entries
// against the prepared shape.
func (pm *PreparedMatrix) validateVector(ctV []*rlwe.Ciphertext) error {
	if len(ctV) != pm.chunks {
		return fmt.Errorf("%w: matrix has %d column chunks but vector has %d ciphertexts", ErrVectorLength, pm.chunks, len(ctV))
	}
	for c, ct := range ctV {
		if ct == nil || ct.B == nil || ct.A == nil {
			return fmt.Errorf("%w: vector ciphertext %d is nil", ErrVectorLength, c)
		}
	}
	return nil
}

// validateResult checks one Result's tile count and polynomial shapes.
func (pm *PreparedMatrix) validateResult(res *Result) error {
	e := pm.ev
	if res == nil {
		return fmt.Errorf("%w: nil result; allocate with NewResult", ErrResultShape)
	}
	if len(res.Packed) != len(pm.tiles) {
		return fmt.Errorf("%w: result holds %d tiles, want %d", ErrResultShape, len(res.Packed), len(pm.tiles))
	}
	for ti, ct := range res.Packed {
		if ct == nil || ct.B == nil || ct.A == nil {
			return fmt.Errorf("%w: result tile %d is nil; allocate with NewResult", ErrResultShape, ti)
		}
		if ct.B.Levels() != e.P.NormalLevels || ct.A.Levels() != e.P.NormalLevels ||
			len(ct.B.Coeffs[0]) != e.P.R.N || len(ct.A.Coeffs[0]) != e.P.R.N {
			return fmt.Errorf("%w: result tile %d has the wrong shape; allocate with NewResult", ErrResultShape, ti)
		}
	}
	return nil
}
