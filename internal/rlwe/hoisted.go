package rlwe

// The two halves of a key switch, which have very different reuse
// behaviour:
//
//   1. digit decomposition of the a-part — centred RNS lifts to the full
//      basis plus one forward NTT per digit and limb — which depends only
//      on the ciphertext (DecomposeInto), and
//   2. the digit·key MULTPOLY accumulation, which depends on the switching
//      key (KeySwitchAccumulateNTT).
//
// These two are the key switch: KeySwitchInto (hotpath.go) composes them
// with the inverse transforms and ring.ModDownTo, and the packing tree
// (lwe.packTwo) calls them directly so it can defer the division. The
// decomposition is a first-class, pooled artifact so callers can pay it
// once and reuse it: across the two key operands of one switch (c0 and c1
// share the digit-NTTs by construction), across several switching keys
// applied to the same ciphertext, and — as pooled scratch — across all
// merges a worker executes at one pack-tree level, which keeps the digit
// buffers cache-resident instead of bouncing through the pool per merge.
//
// The decomposition sweep itself is branch-free and lazy: row `digit` is
// the identity, and every other limb gets ReduceBarrett(x) plus a masked
// 2q-q_d correction, leaving representatives in [0, 3q) that feed straight
// into the batched forward NTT (which tolerates anything below 4q and
// emits canonical residues). The digit pair of each limb shares one
// twiddle sweep via ForwardBatch; KeySwitchInto likewise pairs the c0/c1
// inverse transforms. Results are bit-identical to internal/ref's
// big-integer key switch at every step.

import (
	"sync"

	"cham/internal/ring"
)

// Decomposition holds the RNS digit decomposition of one a-part in the
// full basis, NTT domain: Digits[j] = NTT(lift([a]_{q_j})). Obtain with
// GetDecomposition, fill with DecomposeInto, release with PutDecomposition.
type Decomposition struct {
	Digits []*ring.Poly
}

// decShells recycles Decomposition headers; the polynomial buffers come
// from the ring's pool (two pointers, ring-agnostic — one process-wide
// pool is safe, mirroring ctShells).
var decShells sync.Pool

// GetDecomposition borrows a pooled decomposition with one full-basis
// digit polynomial per normal limb. Contents are ARBITRARY until
// DecomposeInto fills them. Release with PutDecomposition.
func (p Params) GetDecomposition() *Decomposition {
	d, ok := decShells.Get().(*Decomposition)
	if !ok {
		d = &Decomposition{}
	}
	if cap(d.Digits) < p.NormalLevels {
		d.Digits = make([]*ring.Poly, p.NormalLevels)
	}
	d.Digits = d.Digits[:p.NormalLevels]
	lv := p.R.Levels()
	for j := range d.Digits {
		if d.Digits[j] == nil || d.Digits[j].Levels() != lv {
			d.Digits[j] = p.R.GetPoly(lv)
		}
	}
	return d
}

// PutDecomposition returns a decomposition obtained from GetDecomposition
// to the pool. The caller must not use d afterwards.
func (p Params) PutDecomposition(d *Decomposition) {
	if d == nil {
		return
	}
	for j := range d.Digits {
		p.R.PutPoly(d.Digits[j])
		d.Digits[j] = nil
	}
	decShells.Put(d)
}

// DecomposeInto fills dec with the digit decomposition of the normal-basis
// coefficient-domain polynomial a: for each normal limb j,
// dec.Digits[j] = NTT(lift_centred([a]_{q_j})) over the full basis.
// This is the ciphertext-dependent half of a key switch, hoisted out so it
// can be reused across switching keys (decomposition commutes with every
// key, and with automorphisms: D_j(φ_k(a)) = φ_k(D_j(a))).
func (p Params) DecomposeInto(dec *Decomposition, a *ring.Poly) {
	r := p.R
	lv := r.Levels()
	n := r.N
	for j := 0; j < p.NormalLevels; j++ {
		src := a.Coeffs[j][:n]
		out := dec.Digits[j]
		for l := 0; l < lv; l++ {
			if l == j {
				// The centred lift is the identity modulo its own limb.
				copy(out.Coeffs[l], src)
				continue
			}
			r.CentredLiftRow(out.Coeffs[l], src, l, j)
		}
		out.IsNTT = false
	}
	// Forward-transform all digits, pairing the digit rows of each limb
	// under one twiddle sweep.
	if p.NormalLevels == 2 {
		d0, d1 := dec.Digits[0], dec.Digits[1]
		for l := 0; l < lv; l++ {
			r.Tables[l].ForwardBatch(d0.Coeffs[l], d1.Coeffs[l])
		}
	} else {
		for l := 0; l < lv; l++ {
			j := 0
			for ; j+1 < p.NormalLevels; j += 2 {
				r.Tables[l].ForwardBatch(dec.Digits[j].Coeffs[l], dec.Digits[j+1].Coeffs[l])
			}
			if j < p.NormalLevels {
				r.Tables[l].ForwardBatch(dec.Digits[j].Coeffs[l])
			}
		}
	}
	for j := 0; j < p.NormalLevels; j++ {
		dec.Digits[j].IsNTT = true
	}
}

// KeySwitchAccumulateNTT is the key-dependent half of a key switch, left
// in the NTT domain with the ModDown deferred: it accumulates both parts
// into the caller's full-basis accumulators, btAcc += Σ_j dec_j ∘ B_j and
// aAcc += Σ_j dec_j ∘ A_j. Nothing is inverted or rescaled here —
// KeySwitchInto hands it a zeroed pair and finishes one switch on the
// spot, the packing tree hands it a node's two parts and defers both
// divisions to its flush. btAcc and aAcc must be full-basis NTT-domain
// polynomials holding canonical residues.
func (p Params) KeySwitchAccumulateNTT(btAcc, aAcc *ring.Poly, dec *Decomposition, swk *SwitchingKey) {
	if swk.BsShoup == nil {
		panic("rlwe: SwitchingKey used before Precompute")
	}
	r := p.R
	if p.NormalLevels == 2 {
		// The two-digit CHAM basis runs fused: each accumulator row is
		// written once per sweep instead of once per digit.
		d0, d1 := dec.Digits[0], dec.Digits[1]
		r.MulCoeffShoupPairAdd(btAcc, d0, swk.Bs[0], swk.BsShoup[0], d1, swk.Bs[1], swk.BsShoup[1])
		r.MulCoeffShoupPairAdd(aAcc, d0, swk.As[0], swk.AsShoup[0], d1, swk.As[1], swk.AsShoup[1])
		return
	}
	for j, d := range dec.Digits {
		r.MulCoeffShoupAdd(btAcc, d, swk.Bs[j], swk.BsShoup[j])
		r.MulCoeffShoupAdd(aAcc, d, swk.As[j], swk.AsShoup[j])
	}
}
