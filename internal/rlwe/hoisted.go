package rlwe

// Hoisted key switching. A key switch splits into two halves with very
// different reuse behaviour:
//
//   1. digit decomposition of the a-part — centred RNS lifts to the full
//      basis plus one forward NTT per digit and limb — which depends only
//      on the ciphertext, and
//   2. the digit·key MULTPOLY accumulation, inverse transforms, and
//      ModDown, which depend on the switching key.
//
// DecomposeInto materializes half 1 as a first-class, pooled artifact so
// callers can pay it once and reuse it: across the two key operands of one
// switch (c0 and c1 share the digit-NTTs by construction), across several
// switching keys applied to the same ciphertext (BSGS rotation batteries),
// and — as pooled scratch — across all merges a worker executes at one
// pack-tree level, which keeps the digit buffers cache-resident instead of
// bouncing through the pool per merge.
//
// The decomposition sweep itself is branch-free and lazy: row `digit` is
// the identity, and every other limb gets ReduceBarrett(x) plus a masked
// 2q-q_d correction, leaving representatives in [0, 3q) that feed straight
// into the batched lazy forward NTT (which tolerates anything below 4q and
// emits canonical residues). The digit pair of each limb shares one
// twiddle sweep via ForwardBatch; KeySwitchHoistedInto likewise pairs the
// c0/c1 inverse transforms. Results are bit-identical to the strict
// per-digit schedule at every step.

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

// DecomposeNTTInto is DecomposeInto for an NTT-resident a-part, the form
// the NTT-resident packing tree feeds it (DESIGN.md §12). Digit j's own
// limb row is a verbatim copy of a's NTT row (the centred lift is the
// identity modulo its own limb, and the transform of identical inputs is
// identical), so only the cross-limb rows pay transforms: one inverse per
// normal limb to recover the coefficient view the lifts read, then one
// forward per cross row, paired per limb under one twiddle sweep. For the
// CHAM basis that is 2 inverse + 4 forward row transforms versus the 6
// forward of the coefficient path — and the caller saved the 2-row inverse
// that used to produce the coefficient input in the first place.
func (p Params) DecomposeNTTInto(dec *Decomposition, a *ring.Poly) {
	r := p.R
	if !a.IsNTT {
		panic("rlwe: DecomposeNTTInto requires an NTT-domain input")
	}
	lv := r.Levels()
	n := r.N
	nl := p.NormalLevels
	cf := r.GetPoly(nl)
	for j := 0; j < nl; j++ {
		copy(cf.Coeffs[j][:n], a.Coeffs[j][:n])
		r.Tables[j].InverseLazy(cf.Coeffs[j])
	}
	for j := 0; j < nl; j++ {
		src := cf.Coeffs[j][:n]
		out := dec.Digits[j]
		for l := 0; l < lv; l++ {
			if l == j {
				copy(out.Coeffs[l][:n], a.Coeffs[j][:n])
				continue
			}
			r.CentredLiftRow(out.Coeffs[l], src, l, j)
		}
	}
	r.PutPoly(cf)
	// Forward-transform only the cross-limb rows, pairing rows that share
	// a limb (and hence a twiddle table) under one sweep.
	for l := 0; l < lv; l++ {
		var pend []uint64
		for j := 0; j < nl; j++ {
			if j == l {
				continue
			}
			row := dec.Digits[j].Coeffs[l]
			if pend == nil {
				pend = row
				continue
			}
			r.Tables[l].ForwardBatch(pend, row)
			pend = nil
		}
		if pend != nil {
			r.Tables[l].ForwardLazy(pend)
		}
	}
	for j := 0; j < nl; j++ {
		dec.Digits[j].IsNTT = true
	}
}

// KeySwitchAccumulateNTT is the NTT-resident completion of a key switch
// with the ModDown deferred: it accumulates the b-part products straight
// into the caller's full-basis NTT accumulator (btAcc += Σ_j dec_j ∘ B_j)
// and overwrites c1 with the a-part sum (c1 = Σ_j dec_j ∘ A_j). Nothing is
// inverted or rescaled here — the caller owns the c1 ModDown (see
// ring.ModDownNTTAddInto) and flushes btAcc's division once per tree.
// btAcc and c1 must be full-basis NTT-domain polynomials.
func (p Params) KeySwitchAccumulateNTT(btAcc, c1 *ring.Poly, dec *Decomposition, swk *SwitchingKey) {
	r := p.R
	shoup := swk.BsShoup != nil
	if p.NormalLevels == 2 && shoup {
		// The two-digit CHAM basis runs fused: each accumulator row is
		// written once per sweep instead of once per digit.
		d0, d1 := dec.Digits[0], dec.Digits[1]
		r.MulCoeffShoupPairAdd(btAcc, d0, swk.Bs[0], swk.BsShoup[0], d1, swk.Bs[1], swk.BsShoup[1])
		r.MulCoeffShoupPair(c1, d0, swk.As[0], swk.AsShoup[0], d1, swk.As[1], swk.AsShoup[1])
		return
	}
	for j := 0; j < p.NormalLevels; j++ {
		d := dec.Digits[j]
		switch {
		case j == 0 && shoup:
			r.MulCoeffShoupAdd(btAcc, d, swk.Bs[0], swk.BsShoup[0])
			r.MulCoeffShoup(c1, d, swk.As[0], swk.AsShoup[0])
		case shoup:
			r.MulCoeffShoupAdd(btAcc, d, swk.Bs[j], swk.BsShoup[j])
			r.MulCoeffShoupAdd(c1, d, swk.As[j], swk.AsShoup[j])
		case j == 0:
			r.MulCoeffAdd(btAcc, d, swk.Bs[0])
			r.MulCoeff(c1, d, swk.As[0])
		default:
			r.MulCoeffAdd(btAcc, d, swk.Bs[j])
			r.MulCoeffAdd(c1, d, swk.As[j])
		}
	}
}

// KeySwitchHoistedInto completes a key switch from a prepared digit
// decomposition: (outB, outA) receive the normal-basis coefficient-domain
// switched a-part contribution ModDown(INTT(Σ_j dec_j ∘ K_j)); the caller
// adds the ciphertext's b-part. outB/outA must be normal-basis polys.
// All temporaries are pooled; the c0/c1 inverse transforms of each limb
// share one twiddle sweep.
func (p Params) KeySwitchHoistedInto(outB, outA *ring.Poly, dec *Decomposition, swk *SwitchingKey) {
	r := p.R
	lv := r.Levels()
	c0 := r.GetPoly(lv)
	c1 := r.GetPoly(lv)
	shoup := swk.BsShoup != nil
	for j := 0; j < p.NormalLevels; j++ {
		d := dec.Digits[j]
		switch {
		case j == 0 && shoup:
			r.MulCoeffShoup(c0, d, swk.Bs[0], swk.BsShoup[0])
			r.MulCoeffShoup(c1, d, swk.As[0], swk.AsShoup[0])
		case shoup:
			r.MulCoeffShoupAdd(c0, d, swk.Bs[j], swk.BsShoup[j])
			r.MulCoeffShoupAdd(c1, d, swk.As[j], swk.AsShoup[j])
		case j == 0:
			r.MulCoeff(c0, d, swk.Bs[0])
			r.MulCoeff(c1, d, swk.As[0])
		default:
			r.MulCoeffAdd(c0, d, swk.Bs[j])
			r.MulCoeffAdd(c1, d, swk.As[j])
		}
	}
	for l := 0; l < lv; l++ {
		r.Tables[l].InverseBatch(c0.Coeffs[l], c1.Coeffs[l])
	}
	c0.IsNTT, c1.IsNTT = false, false

	// Divide by the special modulus (rounding) back to the normal basis.
	b, av := c0, c1
	for b.Levels() > p.NormalLevels+1 {
		nb := r.GetPoly(b.Levels() - 1)
		na := r.GetPoly(av.Levels() - 1)
		r.ModDownInto(nb, b)
		r.ModDownInto(na, av)
		if b != c0 {
			r.PutPoly(b)
			r.PutPoly(av)
		}
		b, av = nb, na
	}
	r.ModDownInto(outB, b)
	r.ModDownInto(outA, av)
	if b != c0 {
		r.PutPoly(b)
		r.PutPoly(av)
	}
	r.PutPoly(c0)
	r.PutPoly(c1)
}
