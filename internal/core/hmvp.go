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

	"cham/internal/bfv"
	"cham/internal/lwe"
	"cham/internal/rlwe"
)

// Evaluator computes homomorphic matrix-vector products.
type Evaluator struct {
	P    bfv.Params
	Keys *lwe.PackingKeys
	// Workers bounds the goroutines a tile's packing fold splits across:
	// each folds a disjoint subtree, computing its own row pairs' dot
	// products as its first level (results are bit-identical for any
	// worker count).
	// Defaults to GOMAXPROCS; set 1 for strictly serial, goroutine-free
	// evaluation.
	Workers int

	// Pooled scratch and cached constants for the allocation-free hot
	// path (see prepared.go). An Evaluator must not be copied.
	applyPool sync.Pool // *applyScratch
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
// MatVec is Prepare followed by Apply, for a matrix used once; when the
// same matrix multiplies several vectors, keep the PreparedMatrix instead.
func (e *Evaluator) MatVec(A [][]uint64, ctV []*rlwe.Ciphertext) (*Result, error) {
	pm, err := e.Prepare(A)
	if err != nil {
		return nil, err
	}
	return pm.Apply(ctV)
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
