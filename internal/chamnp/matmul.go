package chamnp

// Encrypted matrix × prepared cleartext matrix. One PreparedMatrix
// drives every lane of the encrypted operand through the batched HMVP
// surface, so the Prepare cost amortizes over the whole matmul — and,
// because an HMVP computes W·v, the SAME prepared W serves both
// layouts without ever being transposed:
//
//	ColMajor X:  MatMul(W, X) = W·X   (one HMVP per column of X)
//	RowMajor X:  MatMul(W, X) = X·Wᵀ  (one HMVP per row of X)
//
// The hot path is allocation-free warm: NewMatMulResult preallocates
// the output once, MatMulInto reuses the operand's cached lane slices
// and the output's cached Result slices, and core.ApplyBatchInto runs
// on pooled scratch.

import (
	"fmt"

	"cham/internal/core"
	"cham/internal/noise"
	"cham/internal/rlwe"
)

// Backend is the HMVP engine a MatMul runs on: a prepared rows×cols
// cleartext matrix that maps batches of dense encrypted vectors (Chunks
// ciphertexts each) to packed Results. *core.PreparedMatrix satisfies
// it directly; RemoteBackend reaches one held by a chamserve server or
// a chamcluster gateway.
type Backend interface {
	Rows() int
	Cols() int
	Chunks() int
	NewResult() *core.Result
	ApplyBatchInto(res []*core.Result, vecs [][]*rlwe.Ciphertext) error
}

// Local wraps an in-process PreparedMatrix as a MatMul backend. (It is
// the identity — the prepared matrix already implements Backend — but
// keeps call sites symmetric with Remote.)
func Local(pm *core.PreparedMatrix) Backend { return pm }

// matmulShape validates x as a MatMul operand for backend b and returns
// the output dimensions under the layout convention.
func matmulShape(b Backend, x *EncMatrix) (outRows, outCols int, err error) {
	if len(x.lanes) == 0 {
		return 0, 0, fmt.Errorf("%w: operand has no lanes", ErrEmpty)
	}
	if x.Packed() {
		return 0, 0, fmt.Errorf("%w: MatMul needs a dense operand; Recrypt the previous layer's output first", ErrPackedOperand)
	}
	if x.laneLen() != b.Cols() {
		return 0, 0, fmt.Errorf("%w: prepared matrix is %dx%d but %s lanes carry %d values",
			ErrShape, b.Rows(), b.Cols(), x.layout, x.laneLen())
	}
	if x.layout == ColMajor {
		return b.Rows(), x.cols, nil // W·X
	}
	return x.rows, b.Rows(), nil // X·Wᵀ
}

// matmulNoise predicts the packed output noise (bits): the row MAC of
// every column chunk against rows bounded by t/2, the rescale to the
// normal basis, then the deferred packing tree over the largest tile.
// The predictor and budget are cached on the destination so warm calls
// stay allocation-free (Budget walks big.Ints).
func (dst *EncMatrix) matmulNoise(b Backend, x *EncMatrix) (float64, error) {
	if dst.predictCache == nil {
		est := noise.New(x.p)
		dst.predictCache = est.HMVPPredictor(core.MaxTilePad(b.Rows(), x.p.R.N), b.Chunks())
		dst.budgetCache = est.Budget(x.p.NormalLevels)
	}
	out := dst.predictCache(x.noise)
	if out > dst.budgetCache {
		return 0, fmt.Errorf("%w: predicted %.1f bits, budget %.1f (operand carries %.1f bits)",
			ErrNoiseBudget, out, dst.budgetCache, x.noise)
	}
	return out, nil
}

// vecs returns (building lazily) the lanes' chunk slices in the
// backend's batch form. Lanes are immutable, so the cache never goes
// stale; the first call allocates, warm calls return the cached form.
func (m *EncMatrix) vecs() [][]*rlwe.Ciphertext {
	if m.vecsCache == nil {
		m.vecsCache = make([][]*rlwe.Ciphertext, len(m.lanes))
		for i, lane := range m.lanes {
			m.vecsCache[i] = lane.chunks
		}
	}
	return m.vecsCache
}

// results returns (building lazily) the lanes' packed Results in the
// backend's batch form.
func (m *EncMatrix) results() []*core.Result {
	if m.resCache == nil {
		m.resCache = make([]*core.Result, len(m.lanes))
		for i, lane := range m.lanes {
			m.resCache[i] = lane.packed
		}
	}
	return m.resCache
}

// NewMatMulResult allocates the packed output matrix for MatMulInto —
// one backend Result per lane of x, sized by the shape rules above.
// Allocate once, then reuse it across warm MatMulInto calls.
func NewMatMulResult(b Backend, x *EncMatrix) (*EncMatrix, error) {
	outRows, outCols, err := matmulShape(b, x)
	if err != nil {
		return nil, countNpErr(err)
	}
	out := &EncMatrix{p: x.p, rows: outRows, cols: outCols, layout: x.layout}
	laneN := b.Rows() // every output lane is one HMVP result of Rows values
	for range x.lanes {
		out.lanes = append(out.lanes, &EncVector{p: x.p, n: laneN, packed: b.NewResult()})
	}
	return out, nil
}

// MatMulInto runs the matmul into a preallocated output (from
// NewMatMulResult with the same backend and a same-shaped operand). A
// warm call — caches built, scratch pools primed — performs zero heap
// allocations.
func MatMulInto(b Backend, dst, x *EncMatrix) error {
	op := startOp(opMatMul)
	if _, _, err := matmulShape(b, x); err != nil {
		return countNpErr(err)
	}
	outNoise, err := dst.matmulNoise(b, x)
	if err != nil {
		return countNpErr(err)
	}
	if len(dst.lanes) != len(x.lanes) || !dst.Packed() {
		return countNpErr(fmt.Errorf("%w: destination has %d packed lanes, want %d (allocate with NewMatMulResult)",
			ErrShape, len(dst.lanes), len(x.lanes)))
	}
	if err := b.ApplyBatchInto(dst.results(), x.vecs()); err != nil {
		return countNpErr(err)
	}
	dst.layout = x.layout
	if x.layout == ColMajor {
		dst.rows, dst.cols = b.Rows(), x.cols
	} else {
		dst.rows, dst.cols = x.rows, b.Rows()
	}
	dst.setNoise(outNoise)
	op.done(dst)
	mLanes.Add(uint64(len(x.lanes)))
	return nil
}

// MatMul computes the product of the backend's prepared matrix W with
// the encrypted x under the layout convention (W·X for ColMajor x,
// X·Wᵀ for RowMajor x), returning a fresh packed matrix.
func MatMul(b Backend, x *EncMatrix) (*EncMatrix, error) {
	dst, err := NewMatMulResult(b, x)
	if err != nil {
		return nil, err
	}
	if err := MatMulInto(b, dst, x); err != nil {
		return nil, err
	}
	return dst, nil
}
