package ring

// Hot-path support: pooled polynomial buffers, fused multiply-accumulate
// kernels, Shoup companion tables for fixed operands, and an in-place
// RESCALE (ModDownInto) with cached per-limb constants. Together these let
// the HMVP pipeline (core.PreparedMatrix) run with zero heap
// allocations after warm-up, the software analogue of CHAM's
// buffer-resident dataflow.

import (
	"math/bits"

	"cham/internal/vec"
)

// GetPoly borrows a polynomial with the given limb count from the ring's
// pool. The coefficients are ARBITRARY (not zeroed) and IsNTT is reset to
// false; callers must fully overwrite the rows they use, or call Zero.
// Return the buffer with PutPoly once done.
func (r *Ring) GetPoly(levels int) *Poly {
	if levels < 1 || levels > len(r.Moduli) {
		panic("ring: levels out of range")
	}
	if p, ok := r.polyPools[levels-1].Get().(*Poly); ok {
		p.IsNTT = false
		return p
	}
	return r.NewPoly(levels)
}

// PutPoly returns a polynomial obtained from GetPoly (or NewPoly) to the
// pool. The caller must not use p afterwards.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil {
		return
	}
	r.polyPools[len(p.Coeffs)-1].Put(p)
}

// getScratch borrows one N-word row buffer; see putScratch.
func (r *Ring) getScratch() *[]uint64 {
	if p, ok := r.scratch.Get().(*[]uint64); ok {
		return p
	}
	buf := make([]uint64, r.N)
	return &buf
}

func (r *Ring) putScratch(p *[]uint64) { r.scratch.Put(p) }

// CopyFrom copies o's limbs and domain flag into p. Level counts must match.
func (p *Poly) CopyFrom(o *Poly) {
	if len(p.Coeffs) != len(o.Coeffs) {
		panic("ring: level mismatch")
	}
	for l := range p.Coeffs {
		copy(p.Coeffs[l], o.Coeffs[l])
	}
	p.IsNTT = o.IsNTT
}

// ShoupPrecompPoly returns the Shoup companion table of p — one word per
// coefficient — for use as the fixed operand of the MulCoeffShoup…
// sweeps. Worth computing once whenever p multiplies more than a couple of
// polynomials (switching keys, prepared matrix rows).
func (r *Ring) ShoupPrecompPoly(p *Poly) [][]uint64 {
	out := make([][]uint64, p.Levels())
	backing := make([]uint64, p.Levels()*r.N)
	for l := range out {
		out[l], backing = backing[:r.N], backing[r.N:]
		r.Moduli[l].ShoupPrecompRow(out[l], p.Coeffs[l])
	}
	return out
}

// NTTShoupInto transforms p to the evaluation domain in place and fills dst
// (one row of at least N words per limb of p) with ShoupPrecompPoly of the
// result — limb by limb, so the companion pass reads each row while the
// transform still has it in cache. It is the allocation-free form used
// when the caller slabs many tables into one backing array (prepared-matrix
// rows).
func (r *Ring) NTTShoupInto(dst [][]uint64, p *Poly) {
	if p.IsNTT {
		panic("ring: NTT of an NTT-domain polynomial")
	}
	if len(dst) < p.Levels() {
		panic("ring: Shoup table level mismatch")
	}
	for l, row := range p.Coeffs {
		r.Tables[l].ForwardLazy(row)
		r.Moduli[l].ShoupPrecompRow(dst[l][:r.N], row)
	}
	p.IsNTT = true
}

// MulCoeffShoupAdd sets out += a ∘ b where bShoup = ShoupPrecompPoly(b).
func (r *Ring) MulCoeffShoupAdd(out, a, b *Poly, bShoup [][]uint64) {
	lv := sameLevels(out, a, b)
	sameDomain(a, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, rb, rs, ro := a.Coeffs[l], b.Coeffs[l], bShoup[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.Add(ro[i], m.MulShoup(ra[i], rb[i], rs[i]))
		}
	}
}

// MulCoeffShoupPairAdd sets out += a0 ∘ b0 + a1 ∘ b1 in one sweep — the
// two-digit key-switch accumulation fused so out is written once instead
// of once per digit. s0/s1 are the Shoup companions of b0/b1.
func (r *Ring) MulCoeffShoupPairAdd(out, a0, b0 *Poly, s0 [][]uint64, a1, b1 *Poly, s1 [][]uint64) {
	lv := sameLevels(out, a0, b0, a1, b1)
	sameDomain(a0, b0, a1, b1)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra0, rb0, rs0 := a0.Coeffs[l], b0.Coeffs[l], s0[l]
		ra1, rb1, rs1 := a1.Coeffs[l], b1.Coeffs[l], s1[l]
		ro := out.Coeffs[l]
		if vec.MulShoupPair(m.Q, ro, ra0, rb0, rs0, ra1, rb1, rs1) {
			continue
		}
		for i := range ro {
			t := m.Add(m.MulShoup(ra0[i], rb0[i], rs0[i]), m.MulShoup(ra1[i], rb1[i], rs1[i]))
			ro[i] = m.Add(ro[i], t)
		}
	}
}

// MulCoeffShoupDual multiplies one fixed operand against two polynomials
// in a single sweep: outB = aB ∘ b and outA = aA ∘ b, reading b and its
// Shoup table once — the dot-product MAC of the row apply, where the
// prepared row multiplies both halves of a vector ciphertext.
func (r *Ring) MulCoeffShoupDual(outB, outA, aB, aA, b *Poly, bShoup [][]uint64) {
	lv := sameLevels(outB, outA, aB, aA, b)
	sameDomain(aB, aA, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		rb, ra := aB.Coeffs[l], aA.Coeffs[l]
		rk, rs := b.Coeffs[l], bShoup[l]
		rob, roa := outB.Coeffs[l], outA.Coeffs[l]
		if vec.MulShoupDual(m.Q, rob, roa, rb, ra, rk, rs, false) {
			continue
		}
		for i := range rob {
			k, s := rk[i], rs[i]
			rob[i] = m.MulShoup(rb[i], k, s)
			roa[i] = m.MulShoup(ra[i], k, s)
		}
	}
	outB.IsNTT, outA.IsNTT = aB.IsNTT, aA.IsNTT
}

// MulCoeffShoupDualAdd is the accumulating form of MulCoeffShoupDual:
// outB += aB ∘ b and outA += aA ∘ b in one sweep.
func (r *Ring) MulCoeffShoupDualAdd(outB, outA, aB, aA, b *Poly, bShoup [][]uint64) {
	lv := sameLevels(outB, outA, aB, aA, b)
	sameDomain(aB, aA, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		rb, ra := aB.Coeffs[l], aA.Coeffs[l]
		rk, rs := b.Coeffs[l], bShoup[l]
		rob, roa := outB.Coeffs[l], outA.Coeffs[l]
		if vec.MulShoupDual(m.Q, rob, roa, rb, ra, rk, rs, true) {
			continue
		}
		for i := range rob {
			k, s := rk[i], rs[i]
			rob[i] = m.Add(rob[i], m.MulShoup(rb[i], k, s))
			roa[i] = m.Add(roa[i], m.MulShoup(ra[i], k, s))
		}
	}
}

// SumRow returns Σ_i p.Coeffs[l][i] mod q_l, accumulated in 128 bits and
// reduced once. For an NTT-domain row, N^-1 times this sum is the constant
// coefficient of the inverse transform (Σ_j ψ^{ij·...} telescopes to zero
// for every i except 0) — the shortcut EXTRACT uses to avoid a full INTT
// when only coefficient 0 is needed.
func (r *Ring) SumRow(p *Poly, l int) uint64 {
	m := r.Moduli[l]
	var hi, lo, c uint64
	for _, v := range p.Coeffs[l] {
		lo, c = bits.Add64(lo, v, 0)
		hi += c
	}
	return m.BarrettReduce128(hi, lo)
}

// CentredLiftRow lifts src, canonical residues of limb `from`, into limb l:
// out[i] ≡ the centred representative of src[i] (mod q_l). Branch-free and
// lazy: every element gets ReduceBarrett(x), and exactly the negative
// lifts (x > q_from/2) also get negAdd ≡ -q_from (mod q_l), kept in
// (q_l, 2q_l] so the outputs are [0, 3q_l) representatives — inside the
// forward transform's 4q input headroom. This is the sweep digit
// decomposition (rlwe.DecomposeInto) runs once per cross-limb row.
func (r *Ring) CentredLiftRow(out, src []uint64, l, from int) {
	ml, qf := r.Moduli[l], r.Moduli[from].Q
	half := qf / 2
	negAdd := 2*ml.Q - ml.ReduceBarrett(qf)
	out = out[:len(src)]
	if vec.CentredLift(ml.Q, out, src, half, negAdd) {
		return
	}
	for i, x := range src {
		neg := uint64(int64(half-x) >> 63) // all ones iff x > half
		out[i] = ml.ReduceBarrett(x) + (neg & negAdd)
	}
}

// ModDownInto divides p (last limb = the modulus being dropped) by that
// limb with rounding, writing into a caller-supplied polynomial with one
// fewer limb: out = round(p / q_last) over the remaining basis, using the
// constants cached at ring construction and division-free centred lifts.
// This is the RESCALE unit (stage 4) and the closing step of key
// switching; ModDownTo is the form callers use.
func (r *Ring) ModDownInto(out, p *Poly) {
	lv := p.Levels()
	if lv < 2 {
		panic("ring: nothing to drop")
	}
	if p.IsNTT {
		panic("ring: ModDown requires coefficient domain")
	}
	if out.Levels() != lv-1 {
		panic("ring: ModDown level mismatch")
	}
	msp := r.Moduli[lv-1] // the special modulus being divided out
	spRow := p.Coeffs[lv-1][:r.N]
	halfP := msp.Q / 2
	for l := 0; l < lv-1; l++ {
		ml := r.Moduli[l]
		pInv := r.modDownInv[lv-1][l]
		pp := r.modDownInvShoup[lv-1][l]
		twoQ := 2 * ml.Q
		qspL := ml.ReduceBarrett(msp.Q) // q_sp mod q_l
		ra := p.Coeffs[l][:r.N]
		ro := out.Coeffs[l][:r.N]
		if vec.ModDownRow(ml.Q, ro, ra, spRow, halfP, qspL, pInv, pp) {
			continue
		}
		for i := range ro {
			// d ≡ x_l - [x_sp centred] in limb l. Branch-free: always
			// subtract the reduced residue of x_sp, then add back q_sp
			// (mod q_l) exactly when the centred lift is negative — the
			// mask is the sign bit of halfP - x, so the 50/50-taken branch
			// of the centred comparison never reaches the predictor.
			// d < 4q (< 2^64 for q < 2^62); MulShoup accepts any uint64
			// and restores canonical form.
			x := spRow[i]
			red := ml.ReduceBarrett(x)
			neg := uint64(int64(halfP-x) >> 63) // all ones iff x > halfP
			d := ra[i] + twoQ - red + (neg & qspL)
			ro[i] = ml.MulShoup(d, pInv, pp)
		}
	}
	out.IsNTT = false
}

// ModDownTo divides the coefficient-domain polynomial p by every limb it
// carries beyond out's, with rounding: the one exit from the augmented
// basis (RESCALE, the key-switch tail, the packing tree's merge and
// flush). Limbs drop last first through pooled intermediates; p is left
// intact. For CHAM's single special limb this is exactly one ModDownInto.
func (r *Ring) ModDownTo(out, p *Poly) {
	x := p
	for x.Levels() > out.Levels()+1 {
		next := r.GetPoly(x.Levels() - 1)
		r.ModDownInto(next, x)
		if x != p {
			r.PutPoly(x)
		}
		x = next
	}
	r.ModDownInto(out, x)
	if x != p {
		r.PutPoly(x)
	}
}
