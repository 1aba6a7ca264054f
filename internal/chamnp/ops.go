package chamnp

// The bias add. It returns a fresh array — its operand is never mutated.

import (
	"fmt"

	"cham/internal/core"
)

// cloneLane deep-copies one lane.
func cloneLane(v *EncVector) *EncVector {
	out := &EncVector{p: v.p, n: v.n, noise: v.noise}
	if v.packed != nil {
		out.packed = &core.Result{M: v.packed.M, N: v.packed.N}
		for _, ct := range v.packed.Packed {
			out.packed.Packed = append(out.packed.Packed, ct.Copy())
		}
		return out
	}
	for _, ct := range v.chunks {
		out.chunks = append(out.chunks, ct.Copy())
	}
	return out
}

// clone deep-copies the matrix (caches are not carried over).
func (m *EncMatrix) clone() *EncMatrix {
	out := &EncMatrix{p: m.p, rows: m.rows, cols: m.cols, layout: m.layout, noise: m.noise}
	for _, lane := range m.lanes {
		out.lanes = append(out.lanes, cloneLane(lane))
	}
	return out
}

// AddVector broadcasts the cleartext vector along every lane: each
// column gains v (len rows) under ColMajor, each row gains v (len cols)
// under RowMajor — the bias add of a linear layer. It works on dense and
// packed lanes alike (core places the values). Plaintext addition is
// exact, so the noise bound is unchanged.
func (m *EncMatrix) AddVector(v []uint64) (*EncMatrix, error) {
	op := startOp(opAddVector)
	if len(v) != m.laneLen() {
		return nil, countNpErr(fmt.Errorf("%w: vector length %d, lanes carry %d values",
			ErrShape, len(v), m.laneLen()))
	}
	out := m.clone()
	for _, lane := range out.lanes {
		if lane.packed != nil {
			core.AddResult(m.p, lane.packed, v)
		} else {
			core.AddVector(m.p, lane.chunks, v)
		}
	}
	op.done(out)
	return out, nil
}

// setNoise stamps the matrix and every lane with one bound.
func (m *EncMatrix) setNoise(bits float64) {
	m.noise = bits
	for _, lane := range m.lanes {
		lane.noise = bits
	}
}
