// Package chamnp is the numpy-style encrypted-array tier over the CHAM
// HMVP engine: EncMatrix/EncVector arrays of B/FV ciphertexts with
// Array/MatMul/Add/CumSum/Decrypt ergonomics (the openfhe-numpy
// `onp.array / cumsum / @` surface, rebuilt on coefficient encoding).
//
// Layout is the load-bearing convention. An EncMatrix stores one
// coefficient-encoded ciphertext vector per LANE — its rows (RowMajor)
// or its columns (ColMajor). An HMVP computes W·v for an encrypted v,
// so one prepared cleartext matrix W serves both layouts of the same
// encrypted X without ever being transposed:
//
//	ColMajor X (lanes = columns):  MatMul(W, X) = W·X        (ColMajor)
//	RowMajor X (lanes = rows):     MatMul(W, X) = X·Wᵀ       (RowMajor)
//
// and Transpose is free: it only flips the layout label.
//
// Arrays carry one of two encodings. Dense arrays (from Array/Vector)
// hold each lane as ⌈len/N⌉ augmented-basis ciphertexts with value j at
// coefficient j — the only encoding MatMul accepts as input. Packed
// arrays (MatMul output) hold each lane as a packed HMVP Result whose
// values sit at strided slots. Add/Sub/ScalarMul/AddVector/CumSum work
// on both; crossing back from packed to dense is an interactive
// re-encryption (Recrypt/SquareRecrypt — the Delphi-style oracle the
// inference demo uses for its non-linear layers, since B/FV without
// relinearization has no ciphertext×ciphertext product).
//
// Every op updates an analytic noise bound (internal/noise) carried on
// the array, and MatMul refuses up front (ErrNoiseBudget) when the
// predicted output noise would cross the decryption budget. Op latency
// lands in cham_np_op_seconds; the kernels underneath report into the
// existing cham_hmvp_stage_seconds taxonomy unchanged.
package chamnp

import (
	"fmt"
	"math/rand"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/noise"
	"cham/internal/rlwe"
)

// Layout selects which axis of the cleartext matrix becomes the
// encrypted lanes.
type Layout int

const (
	// RowMajor encrypts each row as one coefficient-encoded vector.
	RowMajor Layout = iota
	// ColMajor encrypts each column as one coefficient-encoded vector.
	ColMajor
)

func (l Layout) String() string {
	if l == ColMajor {
		return "col-major"
	}
	return "row-major"
}

// EncVector is one encrypted vector: dense (coefficient-encoded chunks)
// or packed (an HMVP result with values at strided slots).
type EncVector struct {
	p      bfv.Params
	n      int                // logical length
	chunks []*rlwe.Ciphertext // dense encoding; nil when packed
	packed *core.Result       // packed encoding; nil when dense
	noise  float64            // analytic ∞-norm bound, bits
}

// Packed reports whether the vector carries the packed HMVP encoding.
func (v *EncVector) Packed() bool { return v.packed != nil }

// EncMatrix is an encrypted rows×cols matrix stored as one EncVector
// per lane of the chosen layout. All lanes share an encoding and the
// noise bound tracks the worst lane.
type EncMatrix struct {
	p          bfv.Params
	rows, cols int
	layout     Layout
	lanes      []*EncVector
	noise      float64

	// Caches for the allocation-free MatMul hot path: the lane chunk
	// slices (inputs) and packed results (outputs) in backend-call form.
	// Lanes are immutable after construction, so building these once is
	// safe; a warm MatMulInto then allocates nothing.
	vecsCache [][]*rlwe.Ciphertext
	resCache  []*core.Result
	// Noise-gate cache for MatMulInto destinations: the allocation-free
	// HMVP predictor and the normal-basis budget, built on first use so
	// the per-call budget check stays off the heap.
	predictCache func(float64) float64
	budgetCache  float64
}

// Dims returns (rows, cols).
func (m *EncMatrix) Dims() (rows, cols int) { return m.rows, m.cols }

// Layout returns the lane layout.
func (m *EncMatrix) Layout() Layout { return m.layout }

// Packed reports whether the matrix carries the packed HMVP encoding.
func (m *EncMatrix) Packed() bool { return len(m.lanes) > 0 && m.lanes[0].Packed() }

// NoiseBits returns the analytic noise bound (bits) of the worst lane.
func (m *EncMatrix) NoiseBits() float64 { return m.noise }

// BudgetBits returns the decryption noise ceiling for the basis the
// matrix currently lives in (augmented while dense, normal once packed).
func (m *EncMatrix) BudgetBits() float64 {
	est := noise.New(m.p)
	if m.Packed() {
		return est.Budget(m.p.NormalLevels)
	}
	return est.Budget(m.p.R.Levels())
}

// Lanes returns the lane count (rows for RowMajor, cols for ColMajor).
func (m *EncMatrix) Lanes() int { return len(m.lanes) }

// laneLen returns the logical length of every lane.
func (m *EncMatrix) laneLen() int {
	if m.layout == ColMajor {
		return m.rows
	}
	return m.cols
}

// T returns the transpose as a zero-cost view: the same lanes under the
// flipped layout label. The view shares ciphertexts with m — treat both
// as immutable (every op here already returns fresh arrays).
func (m *EncMatrix) T() *EncMatrix {
	flipped := RowMajor
	if m.layout == RowMajor {
		flipped = ColMajor
	}
	return &EncMatrix{p: m.p, rows: m.cols, cols: m.rows, layout: flipped,
		lanes: m.lanes, noise: m.noise, vecsCache: m.vecsCache, resCache: m.resCache}
}

// Vector encrypts v as a dense EncVector (⌈len/N⌉ augmented chunks).
func Vector(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, v []uint64) (*EncVector, error) {
	if len(v) == 0 {
		return nil, fmt.Errorf("%w (no elements)", ErrEmpty)
	}
	return &EncVector{
		p:      p,
		n:      len(v),
		chunks: core.EncryptVector(p, rng, sk, v),
		noise:  noise.New(p).FreshSym(),
	}, nil
}

// Array encrypts the cleartext matrix under the given layout: one
// coefficient-encoded vector per row (RowMajor) or per column
// (ColMajor). Values are reduced mod t.
func Array(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, data [][]uint64, layout Layout) (*EncMatrix, error) {
	done := startOp(opArray)
	m, err := array(p, rng, sk, data, layout)
	if err != nil {
		return nil, countNpErr(err)
	}
	done(m)
	return m, nil
}

func array(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, data [][]uint64, layout Layout) (*EncMatrix, error) {
	rows := len(data)
	if rows == 0 || len(data[0]) == 0 {
		return nil, fmt.Errorf("%w (no rows or no columns)", ErrEmpty)
	}
	cols := len(data[0])
	for i := range data {
		if len(data[i]) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrRagged, i, len(data[i]), cols)
		}
	}
	fresh := noise.New(p).FreshSym()
	out := &EncMatrix{p: p, rows: rows, cols: cols, layout: layout, noise: fresh}
	if layout == ColMajor {
		col := make([]uint64, rows)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				col[i] = data[i][j]
			}
			out.lanes = append(out.lanes, &EncVector{
				p: p, n: rows, chunks: core.EncryptVector(p, rng, sk, col), noise: fresh})
		}
	} else {
		for i := 0; i < rows; i++ {
			out.lanes = append(out.lanes, &EncVector{
				p: p, n: cols, chunks: core.EncryptVector(p, rng, sk, data[i]), noise: fresh})
		}
	}
	return out, nil
}

// Decrypt reads the vector back: coefficient j per dense chunk, or the
// strided result slots of the packed encoding.
func (v *EncVector) Decrypt(sk *rlwe.SecretKey) []uint64 {
	if v.packed != nil {
		return core.DecryptResult(v.p, v.packed, sk)
	}
	out := make([]uint64, 0, v.n)
	for _, ct := range v.chunks {
		pt := v.p.Decrypt(ct, sk)
		take := v.n - len(out)
		if take > v.p.R.N {
			take = v.p.R.N
		}
		out = append(out, pt.Coeffs[:take]...)
	}
	return out
}

// Decrypt reads the full matrix back as row-major cleartext, whatever
// the layout and encoding.
func (m *EncMatrix) Decrypt(sk *rlwe.SecretKey) [][]uint64 {
	done := startOp(opDecrypt)
	out := make([][]uint64, m.rows)
	for i := range out {
		out[i] = make([]uint64, m.cols)
	}
	for li, lane := range m.lanes {
		vals := lane.Decrypt(sk)
		if m.layout == ColMajor {
			for i, x := range vals {
				out[i][li] = x
			}
		} else {
			copy(out[li], vals)
		}
	}
	done(m)
	return out
}

// Recrypt is the interactive refresh oracle: decrypt with the secret
// key, apply f to every cleartext entry (nil f is the identity), and
// re-encrypt dense under the same layout with fresh noise. This models
// the client-side hop of hybrid protocols — it is how a packed MatMul
// output becomes a dense input for the next layer, and how non-linear
// activations run (see SquareRecrypt).
func (m *EncMatrix) Recrypt(rng *rand.Rand, sk *rlwe.SecretKey, f func(uint64) uint64) (*EncMatrix, error) {
	data := m.Decrypt(sk)
	if f != nil {
		for i := range data {
			for j := range data[i] {
				data[i][j] = f(data[i][j])
			}
		}
	}
	return Array(m.p, rng, sk, data, m.layout)
}

// SquareRecrypt is the square activation x ↦ x² mod t as an interactive
// layer (Recrypt with squaring) — the polynomial activation of
// CryptoNets-style private inference.
func (m *EncMatrix) SquareRecrypt(rng *rand.Rand, sk *rlwe.SecretKey) (*EncMatrix, error) {
	done := startOp(opSquare)
	out, err := m.Recrypt(rng, sk, func(x uint64) uint64 {
		r := m.p.T.Reduce(x)
		return m.p.T.Mul(r, r)
	})
	if err != nil {
		return nil, err
	}
	done(out)
	return out, nil
}
