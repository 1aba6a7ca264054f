// Package lwe implements the LWE side of CHAM's ciphertext conversions:
// EXTRACTLWES (Eq. 3), which pulls a single coefficient of an RLWE
// ciphertext out as an LWE ciphertext, and PACKTWOLWES / PACKLWES
// (Alg. 2 / Alg. 3, after Chen-Dai-Kim-Song), which repack up to N LWE
// ciphertexts into one RLWE ciphertext.
//
// Packing m = 2^ℓ LWE ciphertexts with values μ_i yields an RLWE ciphertext
// whose plaintext holds 2^ℓ·μ_i at coefficient i·N/m (natural order);
// positions between slots carry garbage that callers must ignore. The 2^ℓ
// factor is cancelled by folding bfv.InvPow2(ℓ) into the matrix encoding
// (see bfv.EncodeRow's scale argument).
package lwe

import (
	"fmt"
	"math/rand"

	"cham/internal/bfv"
	"cham/internal/rlwe"
)

// Ciphertext is an LWE ciphertext in RNS form: Beta[l] is the scalar part
// modulo limb l and Alpha[l] the mask vector modulo limb l. It decrypts as
// Beta + <Alpha, s> = Δ·μ + e.
type Ciphertext struct {
	Beta  []uint64
	Alpha [][]uint64
}

// Levels returns the number of RNS limbs.
func (ct *Ciphertext) Levels() int { return len(ct.Beta) }

// Extract returns the LWE ciphertext encrypting coefficient idx of the
// RLWE ciphertext's plaintext (RLWE-TO-LWE). The input must be in
// coefficient domain. Extraction is free of noise growth.
func Extract(p bfv.Params, ct *rlwe.Ciphertext, idx int) *Ciphertext {
	if ct.IsNTT() {
		panic("lwe: Extract requires coefficient domain")
	}
	n := p.R.N
	if idx < 0 || idx >= n {
		panic("lwe: coefficient index out of range")
	}
	src := ct
	if idx != 0 {
		// Shift coefficient idx into the constant slot: multiply by X^-idx.
		shifted := &rlwe.Ciphertext{B: p.R.NewPoly(ct.Levels()), A: p.R.NewPoly(ct.Levels())}
		p.MulMonomial(shifted, ct, -idx)
		src = shifted
	}
	lv := src.Levels()
	out := &Ciphertext{Beta: make([]uint64, lv), Alpha: make([][]uint64, lv)}
	for l := 0; l < lv; l++ {
		m := p.R.Moduli[l]
		out.Beta[l] = src.B.Coeffs[l][0]
		a := src.A.Coeffs[l]
		// LWE mask: α_0 = a_0, α_j = -a_{N-j} for j >= 1, so that
		// <α, s> equals the constant coefficient of the ring product a·s.
		alpha := make([]uint64, n)
		alpha[0] = a[0]
		for j := 1; j < n; j++ {
			alpha[j] = m.Neg(a[n-j])
		}
		out.Alpha[l] = alpha
	}
	return out
}

// AsRLWE embeds the LWE ciphertext back into RLWE shape (Eq. 3's output
// as used by Alg. 2): B is the constant polynomial β and A carries the
// mask as its coefficients. The constant coefficient of the result's
// phase equals the LWE phase; other coefficients are garbage.
func (ct *Ciphertext) AsRLWE(p bfv.Params) *rlwe.Ciphertext {
	lv := ct.Levels()
	out := &rlwe.Ciphertext{B: p.R.NewPoly(lv), A: p.R.NewPoly(lv)}
	n := p.R.N
	for l := 0; l < lv; l++ {
		m := p.R.Moduli[l]
		out.B.Coeffs[l][0] = ct.Beta[l]
		a := out.A.Coeffs[l]
		// Invert the Extract transform: a_0 = α_0, a_{N-j} = -α_j.
		a[0] = ct.Alpha[l][0]
		for j := 1; j < n; j++ {
			a[n-j] = m.Neg(ct.Alpha[l][j])
		}
	}
	return out
}

// Decrypt recovers the value μ = ⌊t·(β + <α,s>)/Q⌉ mod t.
func (ct *Ciphertext) Decrypt(p bfv.Params, sk *rlwe.SecretKey) uint64 {
	pt := p.Decrypt(ct.AsRLWE(p), sk)
	return pt.Coeffs[0]
}

// PackingKeys holds the automorphism switching keys PACKLWES needs:
// Keys[k] switches φ_k(s) back to s for k = 2i+1, i = 1, 2, 4, ..., m/2.
type PackingKeys struct {
	M    int
	Keys map[int]*rlwe.SwitchingKey
}

// GenPackingKeys generates the ⌈log2 m⌉ switching keys needed to pack m
// LWE ciphertexts. m must be a power of two, 1 <= m <= N.
func GenPackingKeys(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, m int) (*PackingKeys, error) {
	if m < 1 || m&(m-1) != 0 || m > p.R.N {
		return nil, fmt.Errorf("lwe: m=%d must be a power of two in [1,N]", m)
	}
	pk := &PackingKeys{M: m, Keys: map[int]*rlwe.SwitchingKey{}}
	for i := 1; i < m; i <<= 1 {
		k := 2*i + 1
		pk.Keys[k] = p.AutomorphismKeyGen(rng, sk, k)
	}
	return pk, nil
}

// PackLWEs packs the given LWE ciphertexts (Alg. 3) into a single RLWE
// ciphertext. len(cts) must be a power of two not exceeding N, and keys
// must cover that size. Element i of the result's plaintext lives at
// coefficient i·N/len(cts), scaled by len(cts) (fold bfv.InvPow2 into the
// upstream encoding to cancel it).
//
// This is the allocating entry point over the one packing tree: every
// leaf goes AsRLWE → ResidentFromRLWE, then PackResident folds the tree
// and FlushInto leaves residency.
func PackLWEs(p bfv.Params, cts []*Ciphertext, keys *PackingKeys) (*rlwe.Ciphertext, error) {
	nodes := make([]*PackNode, len(cts))
	for i, c := range cts {
		nodes[i] = NewPackNode(p)
		ResidentFromRLWE(p, nodes[i], c.AsRLWE(p))
	}
	root, err := PackResident(p, nodes, keys, 1)
	if err != nil {
		return nil, err
	}
	out := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	FlushInto(p, out, root)
	return out, nil
}

// SlotStride returns the coefficient stride between packed values: N/m.
func SlotStride(n, m int) int { return n / m }
