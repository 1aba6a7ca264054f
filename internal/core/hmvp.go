// Package core implements CHAM's primary contribution: the
// coefficient-encoded homomorphic matrix-vector product of Alg. 1, with
// row/column tiling for arbitrary matrix shapes, together with the
// batch-encoded baseline (§II-E) and the 2-D convolution extension.
//
// The dataflow per output tile mirrors the accelerator pipeline:
//
//	stage 1-3  DOTPRODUCT: NTT, MULTPOLY, INTT per row (Eq. 2)
//	stage 4    RESCALE by the special modulus + EXTRACTLWES (Eq. 3)
//	stage 5-9  PACKTWOLWES tree (Alg. 2/3), m-1 reductions
//
// The packing factor 2^ℓ is pre-compensated in the row encoding, so a
// decrypted result reads out directly.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"cham/internal/bfv"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/rlwe"
)

// Evaluator computes homomorphic matrix-vector products.
type Evaluator struct {
	P    bfv.Params
	Keys *lwe.PackingKeys
	// Workers bounds the goroutines used for the per-row dot products and
	// the independent merges of each packing-tree level (rows and merges
	// are independent; results are bit-identical for any worker count).
	// Defaults to GOMAXPROCS; set 1 for strictly serial, goroutine-free
	// evaluation.
	Workers int

	// Pooled scratch and cached constants for the allocation-free hot
	// path (see prepared.go). An Evaluator must not be copied.
	applyPool sync.Pool // *applyScratch
	rowPool   sync.Pool // *rowScratch
	invOnce   sync.Once
	invN      []uint64 // per-limb N^-1
	invNShoup []uint64
}

// NewEvaluator returns an evaluator whose packing keys cover tiles of up to
// maxRows rows (rounded up to a power of two, capped at N).
func NewEvaluator(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, maxRows int) (*Evaluator, error) {
	if maxRows < 1 {
		return nil, fmt.Errorf("core: maxRows must be positive")
	}
	m := nextPow2(maxRows)
	if m > p.R.N {
		m = p.R.N
	}
	keys, err := lwe.GenPackingKeys(p, rng, sk, m)
	if err != nil {
		return nil, err
	}
	return &Evaluator{P: p, Keys: keys}, nil
}

// NewEvaluatorFromKeys returns an evaluator over an existing packing-key
// set — the serving-tier constructor, where the keys arrive over the wire
// from the client holding the secret rather than being generated locally.
func NewEvaluatorFromKeys(p bfv.Params, keys *lwe.PackingKeys) (*Evaluator, error) {
	if keys == nil {
		return nil, fmt.Errorf("core: nil packing keys")
	}
	if keys.M < 1 || keys.M&(keys.M-1) != 0 || keys.M > p.R.N {
		return nil, fmt.Errorf("core: packing-key M=%d must be a power of two in [1,N]", keys.M)
	}
	for i := 1; i < keys.M; i <<= 1 {
		if keys.Keys[2*i+1] == nil {
			return nil, fmt.Errorf("core: packing-key set for M=%d misses automorphism key %d", keys.M, 2*i+1)
		}
	}
	return &Evaluator{P: p, Keys: keys}, nil
}

func nextPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// EncryptVector encrypts v as ⌈len(v)/N⌉ augmented-basis ciphertexts, the
// form party A ships to party B (§II-F security model).
func EncryptVector(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, v []uint64) []*rlwe.Ciphertext {
	n := p.R.N
	var cts []*rlwe.Ciphertext
	for off := 0; off < len(v); off += n {
		end := off + n
		if end > len(v) {
			end = len(v)
		}
		cts = append(cts, p.Encrypt(rng, sk, p.EncodeVector(v[off:end]), p.R.Levels()))
	}
	if len(cts) == 0 {
		cts = append(cts, p.Encrypt(rng, sk, p.NewPlaintext(), p.R.Levels()))
	}
	return cts
}

// EncryptVectorPK is EncryptVector with a public key.
func EncryptVectorPK(p bfv.Params, rng *rand.Rand, pk *rlwe.PublicKey, v []uint64) []*rlwe.Ciphertext {
	n := p.R.N
	var cts []*rlwe.Ciphertext
	for off := 0; off < len(v); off += n {
		end := off + n
		if end > len(v) {
			end = len(v)
		}
		cts = append(cts, p.EncryptPK(rng, pk, p.EncodeVector(v[off:end]), p.R.Levels()))
	}
	if len(cts) == 0 {
		cts = append(cts, p.EncryptPK(rng, pk, p.NewPlaintext(), p.R.Levels()))
	}
	return cts
}

// Result is the outcome of an HMVP: one packed RLWE ciphertext per tile of
// up to N rows.
type Result struct {
	Packed []*rlwe.Ciphertext
	M      int // total number of rows
	N      int // ring degree (for slot stride computation)
}

// TileRows returns the (padded) number of rows packed into tile i.
func (res *Result) TileRows(i int) int {
	rows := res.M - i*res.N
	if rows > res.N {
		rows = res.N
	}
	return nextPow2(rows)
}

// MatVec computes A·v where A is an m×n cleartext matrix (row-major, all
// values reduced mod t) and ctV the encryption of v produced by
// EncryptVector. n must equal the plaintext vector length used there.
//
// MatVec shares the pooled per-vector machinery with PreparedMatrix but
// encodes and forward-transforms each row on the fly; when the same matrix
// multiplies several vectors, Prepare once and Apply instead.
func (e *Evaluator) MatVec(A [][]uint64, ctV []*rlwe.Ciphertext) (*Result, error) {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	res, err := e.matVec(A, ctV)
	if err != nil {
		return nil, countErr(err)
	}
	if on {
		mApplyMatVec.Observe(time.Since(t0).Seconds())
		mAppliesMatVec.Inc()
		mRows.Add(uint64(res.M))
	}
	return res, nil
}

func (e *Evaluator) matVec(A [][]uint64, ctV []*rlwe.Ciphertext) (*Result, error) {
	p := e.P
	n := p.R.N
	m := len(A)
	if m == 0 {
		return nil, fmt.Errorf("%w (no rows)", ErrEmptyMatrix)
	}
	cols := len(A[0])
	if cols == 0 {
		return nil, fmt.Errorf("%w (no columns)", ErrEmptyMatrix)
	}
	chunks := (cols + n - 1) / n
	if chunks != len(ctV) {
		return nil, fmt.Errorf("%w: matrix has %d column chunks but vector has %d ciphertexts", ErrVectorLength, chunks, len(ctV))
	}
	for i := range A {
		if len(A[i]) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrRaggedMatrix, i, len(A[i]), cols)
		}
	}
	maxPad := 0
	for base := 0; base < m; base += n {
		rows := m - base
		if rows > n {
			rows = n
		}
		mPad := nextPow2(rows)
		if mPad > e.Keys.M {
			return nil, fmt.Errorf("%w: tile of %d rows (keys cover %d)", ErrTileTooLarge, mPad, e.Keys.M)
		}
		if mPad > maxPad {
			maxPad = mPad
		}
	}

	e.ensureInvN()
	sc := e.getApplyScratch(chunks, maxPad)
	defer e.putApplyScratch(sc)
	if err := e.loadVector(sc, ctV); err != nil {
		return nil, err
	}
	res := &Result{M: m, N: n}
	for base := 0; base < m; base += n {
		rows := m - base
		if rows > n {
			rows = n
		}
		mPad := nextPow2(rows)
		scale := p.InvPow2(bits.TrailingZeros(uint(mPad)))
		out := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
		if err := e.tileApply(out, sc, nil, A[base:base+rows], scale, rows, mPad); err != nil {
			return nil, err
		}
		res.Packed = append(res.Packed, out)
	}
	return res, nil
}

// DecryptResult reads the m result values out of the packed ciphertexts.
func DecryptResult(p bfv.Params, res *Result, sk *rlwe.SecretKey) []uint64 {
	out := make([]uint64, 0, res.M)
	for ti, ct := range res.Packed {
		rows := res.M - ti*res.N
		if rows > res.N {
			rows = res.N
		}
		stride := lwe.SlotStride(res.N, res.TileRows(ti))
		dec := p.Decrypt(ct, sk)
		for i := 0; i < rows; i++ {
			out = append(out, dec.Coeffs[i*stride])
		}
	}
	return out
}

// PlainMatVec is the cleartext reference A·v mod t.
func PlainMatVec(p bfv.Params, A [][]uint64, v []uint64) []uint64 {
	out := make([]uint64, len(A))
	for i, row := range A {
		var acc uint64
		for j, a := range row {
			acc = p.T.Add(acc, p.T.Mul(p.T.Reduce(a), p.T.Reduce(v[j])))
		}
		out[i] = acc
	}
	return out
}
