package chamnp

// Elementwise and reduction ops. Everything here is encoding-agnostic
// ciphertext arithmetic (adds, scalar muls, plaintext adds), so it works
// on dense arrays and on packed MatMul outputs alike; only the
// plaintext-broadcast AddVector has to know where the packed slots live.
// Ops return fresh arrays — operands are never mutated.

import (
	"fmt"
	"math"

	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/rlwe"
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

// laneCts returns the ciphertext list of one lane, whatever the encoding.
func laneCts(v *EncVector) []*rlwe.Ciphertext {
	if v.packed != nil {
		return v.packed.Packed
	}
	return v.chunks
}

// compat checks that two matrices can combine elementwise.
func compat(a, b *EncMatrix) error {
	if a.rows != b.rows || a.cols != b.cols {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if a.layout != b.layout {
		return fmt.Errorf("%w: %s vs %s (transpose one operand with T())", ErrShape, a.layout, b.layout)
	}
	if a.Packed() != b.Packed() {
		return fmt.Errorf("%w: dense vs packed", ErrEncodingMix)
	}
	return nil
}

// logSum returns log2(2^a + 2^b) without overflow.
func logSum(a, b float64) float64 {
	if b > a {
		a, b = b, a
	}
	return a + math.Log2(1+math.Pow(2, b-a))
}

// combine runs f over every aligned ciphertext pair of a and b into a
// fresh clone of a.
func combine(a, b *EncMatrix, f func(out, x, y *rlwe.Ciphertext)) *EncMatrix {
	out := a.clone()
	for li := range out.lanes {
		oc, bc := laneCts(out.lanes[li]), laneCts(b.lanes[li])
		for i := range oc {
			f(oc[i], oc[i], bc[i])
		}
	}
	return out
}

// Add returns the elementwise sum a + b mod t.
func (m *EncMatrix) Add(o *EncMatrix) (*EncMatrix, error) {
	op := startOp(opAdd)
	if err := compat(m, o); err != nil {
		return nil, countNpErr(err)
	}
	out := combine(m, o, func(dst, x, y *rlwe.Ciphertext) { m.p.Add(dst, x, y) })
	out.setNoise(logSum(m.noise, o.noise))
	op.done(out)
	return out, nil
}

// Sub returns the elementwise difference a - b mod t.
func (m *EncMatrix) Sub(o *EncMatrix) (*EncMatrix, error) {
	op := startOp(opSub)
	if err := compat(m, o); err != nil {
		return nil, countNpErr(err)
	}
	out := combine(m, o, func(dst, x, y *rlwe.Ciphertext) { m.p.Sub(dst, x, y) })
	out.setNoise(logSum(m.noise, o.noise))
	op.done(out)
	return out, nil
}

// ScalarMul returns c·m mod t. The scalar is interpreted centered (so
// t-1 is -1, costing one bit of noise, not sixteen); noise grows by
// log2|c| and the op refuses when that would cross the budget.
func (m *EncMatrix) ScalarMul(c uint64) (*EncMatrix, error) {
	op := startOp(opScalarMul)
	cl := m.p.T.CenterLift(m.p.T.Reduce(c))
	mag := cl
	if mag < 0 {
		mag = -mag
	}
	grown := m.noise
	if mag > 1 {
		grown += math.Log2(float64(mag))
	}
	if grown > m.BudgetBits() {
		return nil, countNpErr(fmt.Errorf("%w: %.1f bits after ×%d, budget %.1f",
			ErrNoiseBudget, grown, cl, m.BudgetBits()))
	}
	out := m.clone()
	for _, lane := range out.lanes {
		for _, ct := range laneCts(lane) {
			if cl >= 0 {
				m.p.MulScalar(ct, ct, uint64(cl))
			} else {
				m.p.MulScalar(ct, ct, uint64(-cl))
				m.p.R.Neg(ct.B, ct.B)
				m.p.R.Neg(ct.A, ct.A)
			}
		}
	}
	out.setNoise(grown)
	op.done(out)
	return out, nil
}

// AddVector broadcasts the cleartext vector along every lane: each
// column gains v (len rows) under ColMajor, each row gains v (len cols)
// under RowMajor — the bias add of a linear layer. Plaintext addition
// is exact, so the noise bound is unchanged.
func (m *EncMatrix) AddVector(v []uint64) (*EncMatrix, error) {
	op := startOp(opAddVector)
	if len(v) != m.laneLen() {
		return nil, countNpErr(fmt.Errorf("%w: vector length %d, lanes carry %d values",
			ErrShape, len(v), m.laneLen()))
	}
	out := m.clone()
	p := m.p
	n := p.R.N
	if !m.Packed() {
		// One plaintext per chunk, shared by every lane.
		for ci := 0; ci*n < len(v); ci++ {
			lo, hi := ci*n, (ci+1)*n
			if hi > len(v) {
				hi = len(v)
			}
			pt := p.EncodeVector(v[lo:hi])
			for _, lane := range out.lanes {
				p.AddPlain(lane.chunks[ci], pt)
			}
		}
		op.done(out)
		return out, nil
	}
	// Packed lanes: value i of tile ti lives at slot i·stride.
	for _, lane := range out.lanes {
		res := lane.packed
		for ti, ct := range res.Packed {
			base := ti * res.N
			rows := res.M - base
			if rows > res.N {
				rows = res.N
			}
			stride := lwe.SlotStride(res.N, res.TileRows(ti))
			pt := p.NewPlaintext()
			for i := 0; i < rows; i++ {
				pt.Coeffs[i*stride] = p.T.Reduce(v[base+i])
			}
			p.AddPlain(ct, pt)
		}
	}
	op.done(out)
	return out, nil
}

// CumSum returns the cumulative sum along axis (numpy semantics: axis 0
// runs down the rows, axis 1 along each row). Only the axis that crosses
// lanes is reachable homomorphically — axis 0 under RowMajor, axis 1
// under ColMajor; the in-vector axis returns ErrAxisLayout (encrypt in
// the other layout to reach it). k lanes deep, the last lane sums k
// terms, so the noise bound grows by log2(√k).
func (m *EncMatrix) CumSum(axis int) (*EncMatrix, error) {
	op := startOp(opCumSum)
	if axis != 0 && axis != 1 {
		return nil, countNpErr(fmt.Errorf("%w: axis %d (want 0 or 1)", ErrShape, axis))
	}
	crossLanes := (m.layout == RowMajor && axis == 0) || (m.layout == ColMajor && axis == 1)
	if !crossLanes {
		return nil, countNpErr(fmt.Errorf("%w: axis %d under %s runs inside the packed vectors",
			ErrAxisLayout, axis, m.layout))
	}
	out := m.clone()
	for li := 1; li < len(out.lanes); li++ {
		prev, cur := laneCts(out.lanes[li-1]), laneCts(out.lanes[li])
		for i := range cur {
			m.p.Add(cur[i], cur[i], prev[i])
		}
	}
	out.setNoise(m.noise + 0.5*math.Log2(float64(len(out.lanes))))
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
