package core

// Batched apply: one PreparedMatrix driving a whole batch of encrypted
// vectors — the column blocks of an encrypted matrix-matrix product —
// through the one apply path in prepared.go.

import "cham/internal/rlwe"

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
// NewResult, one per vector). A warm call performs zero heap allocations
// regardless of the batch size — the invariant the chamnp MatMul path is
// gated on.
func (pm *PreparedMatrix) ApplyBatchInto(res []*Result, vecs [][]*rlwe.Ciphertext) error {
	return pm.apply(res, nil, vecs, nil)
}
