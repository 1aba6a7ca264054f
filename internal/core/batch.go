package core

import (
	"fmt"
	"math/rand"

	"cham/internal/bfv"
	"cham/internal/rlwe"
)

// Batch-encoded HMVP baseline (§II-E): the rotate-and-sum approach of SIMD
// frameworks such as GAZELLE [21]. Each row costs one slot-wise plaintext
// multiplication plus log2(N) automorphism+key-switch steps to sum the
// slots (a field trace), for O(m·log N) key switches overall — versus
// Alg. 1's O(m) multiplications and m-1 total pack reductions. This is the
// complexity gap Table/Fig discussions build on.

// BatchEvaluator holds the trace (slot-sum) automorphism keys.
type BatchEvaluator struct {
	P bfv.Params
	// traceKeys[i] is the key for the i-th trace step; traceIdx[i] its
	// automorphism index. Applying ct += φ_k(ct) for each in order leaves
	// the slot-sum in every slot.
	traceKeys []*rlwe.SwitchingKey
	traceIdx  []int
}

// NewBatchEvaluator generates the log2(N) trace keys.
func NewBatchEvaluator(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey) (*BatchEvaluator, error) {
	if !p.CanBatch() {
		return nil, fmt.Errorf("core: t=%d does not support batching", p.T.Q)
	}
	e := &BatchEvaluator{P: p}
	n2 := 2 * p.R.N
	// The odd residues mod 2N are generated by 5 and -1: powers 5^(2^j)
	// cover the index-2 subgroup, -1 the remaining coset.
	g := 5 % n2
	for sub := p.R.N / 2; sub >= 2; sub /= 2 {
		e.traceIdx = append(e.traceIdx, g)
		e.traceKeys = append(e.traceKeys, p.AutomorphismKeyGen(rng, sk, g))
		g = g * g % n2
	}
	e.traceIdx = append(e.traceIdx, n2-1)
	e.traceKeys = append(e.traceKeys, p.AutomorphismKeyGen(rng, sk, n2-1))
	return e, nil
}

// TraceSteps returns the number of automorphism+key-switch steps per slot
// sum: log2(N).
func (e *BatchEvaluator) TraceSteps() int { return len(e.traceIdx) }

// EncryptSlots encrypts v into SIMD slots (padded with zeros).
func (e *BatchEvaluator) EncryptSlots(rng *rand.Rand, sk *rlwe.SecretKey, v []uint64) (*rlwe.Ciphertext, error) {
	pt, err := e.P.EncodeSlots(v)
	if err != nil {
		return nil, err
	}
	return e.P.Encrypt(rng, sk, pt, e.P.R.Levels()), nil
}

// SlotSum replaces every slot with the sum of all slots via the trace:
// ct <- Σ_k φ_k(ct) over the full Galois group, computed in log2(N)
// doubling steps.
func (e *BatchEvaluator) SlotSum(ct *rlwe.Ciphertext) *rlwe.Ciphertext {
	p := e.P
	acc := ct.Copy()
	rot := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	for i, k := range e.traceIdx {
		p.AutomorphCtInto(rot, acc, k, e.traceKeys[i])
		p.Add(acc, acc, rot)
	}
	return acc
}

// MatVec computes A·v with the batch-encoded method. The slot-encoded
// encrypted vector ctV must hold v in its first len(A[0]) slots. Each
// result row comes back as its own ciphertext with the dot product
// replicated across all slots — the output-format inefficiency Alg. 1's
// packing avoids.
func (e *BatchEvaluator) MatVec(A [][]uint64, ctV *rlwe.Ciphertext) ([]*rlwe.Ciphertext, error) {
	p := e.P
	if len(A) == 0 || len(A[0]) == 0 {
		return nil, fmt.Errorf("core: empty matrix")
	}
	if len(A[0]) > p.R.N {
		return nil, fmt.Errorf("core: batch method limited to n <= N columns (got %d)", len(A[0]))
	}
	out := make([]*rlwe.Ciphertext, len(A))
	for i, row := range A {
		pt, err := p.EncodeSlots(row)
		if err != nil {
			return nil, err
		}
		prod := p.MulPlainRescale(ctV, pt)
		out[i] = e.SlotSum(prod)
	}
	return out, nil
}

// DecryptBatchResult reads slot 0 of each row ciphertext.
func (e *BatchEvaluator) DecryptBatchResult(cts []*rlwe.Ciphertext, sk *rlwe.SecretKey) ([]uint64, error) {
	out := make([]uint64, len(cts))
	for i, ct := range cts {
		slots, err := e.P.DecodeSlots(e.P.Decrypt(ct, sk))
		if err != nil {
			return nil, err
		}
		out[i] = slots[0]
	}
	return out, nil
}
