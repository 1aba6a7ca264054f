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
	keys, err := lwe.GenPackingKeys(p, rng, sk, MaxTilePad(maxRows, p.R.N))
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
