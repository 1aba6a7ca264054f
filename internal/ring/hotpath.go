package ring

// Hot-path support: pooled polynomial buffers, fused multiply-accumulate
// kernels (Montgomery products against fixed operands kept in Montgomery
// form), and an in-place RESCALE (ModDownInto) with cached per-limb
// constants. Together these let the HMVP pipeline (core.PreparedMatrix)
// run with zero heap allocations after warm-up, the software analogue of
// CHAM's buffer-resident dataflow.

import (
	"math/bits"

	"cham/internal/mod"
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
// coefficient — for use as the fixed operand of MulCoeffShoupAdd and
// MulCoeffShoupDualAdd. No production path reads one: every fixed operand
// is held in Montgomery form instead (MulCoeffMont).
func (r *Ring) ShoupPrecompPoly(p *Poly) [][]uint64 {
	out := make([][]uint64, p.Levels())
	backing := make([]uint64, p.Levels()*r.N)
	for l := range out {
		out[l], backing = backing[:r.N], backing[r.N:]
		for i, v := range p.Coeffs[l] {
			out[l][i] = r.Moduli[l].ShoupPrecomp(v)
		}
	}
	return out
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

// MulCoeffMontPairAdd sets out += a0 ∘ b0 + a1 ∘ b1 in one sweep, where
// b0Mont/b1Mont hold b0/b1 in Montgomery form — MulScalar(b, 2^52), so the
// sweep reads no Shoup table. It is the key-switch accumulation of two
// digits against their keys (a the digits, b the key), fused so out is
// written once instead of once per digit. Every operand must be canonical.
func (r *Ring) MulCoeffMontPairAdd(out, a0, b0Mont, a1, b1Mont *Poly) {
	lv := sameLevels(out, a0, b0Mont, a1, b1Mont)
	sameDomain(a0, b0Mont, a1, b1Mont)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		q, qinv := m.Q, montInv(m.Q)
		ro := out.Coeffs[l]
		ra0, rb0 := a0.Coeffs[l][:len(ro)], b0Mont.Coeffs[l][:len(ro)]
		ra1, rb1 := a1.Coeffs[l][:len(ro)], b1Mont.Coeffs[l][:len(ro)]
		switch {
		case vec.MulMontPair(q, qinv, ro, ra0, rb0, ra1, rb1):
		case q >= montR:
			montWideRow(m, ro, ra0, rb0, 0, true)
			montWideRow(m, ro, ra1, rb1, 0, true)
		default:
			// The Go form of the kernel: both products summed in 128 bits
			// and reduced once, as montMul reduces one. The sum is below
			// 2q², so the difference lies in (−q, 2q); the kernel's
			// moduli (q < 2^50) keep it below q, and here a second
			// conditional subtraction covers the rest.
			for i := range ro {
				h0, l0 := bits.Mul64(ra0[i], rb0[i])
				h1, l1 := bits.Mul64(ra1[i], rb1[i])
				lo, c := bits.Add64(l0, l1, 0)
				hi := h0 + h1 + c
				th, tl := bits.Mul64(lo*qinv&(montR-1), q)
				d := (hi<<12 | lo>>52) - (th<<12 | tl>>52) // in (−q, 2q)
				s := ro[i] + d + q&uint64(int64(d)>>63)    // below 3q
				s = min(s, s-q)
				ro[i] = min(s, s-q)
			}
		}
	}
}

// MulCoeffMont sets out = a ∘ b, or out += a ∘ b when add is set, with
// bMont = MulScalar(b, 2^52): the single-operand form of
// MulCoeffMontPairAdd. It is the sweep of every fixed operand held in
// Montgomery form outside the MACs: the digit left over when a basis has
// an odd number of them, and the secret key's products (rlwe). out may
// alias a. Every operand must be canonical.
func (r *Ring) MulCoeffMont(out, a, bMont *Poly, add bool) {
	lv := sameLevels(out, a, bMont)
	sameDomain(a, bMont)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		q, qinv := m.Q, montInv(m.Q)
		ro := out.Coeffs[l]
		ra, rb := a.Coeffs[l][:len(ro)], bMont.Coeffs[l][:len(ro)]
		switch {
		case vec.MulMont(q, qinv, ro, ra, rb, add):
			continue
		case q >= montR:
			montWideRow(m, ro, ra, rb, 0, add)
			continue
		}
		for i := range ro {
			p := montMul(ra[i], rb[i], q, qinv)
			if add { // branch-free: on uniform operands a wrap is a coin flip
				p += ro[i]
				p = min(p, p-q)
			}
			ro[i] = p
		}
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffMontDotPair is the row apply's MAC for one first-level pair of
// the packing tree: the streamed rows x+ and x− against every chunk of a
// vector, in one sweep per limb and half row that reads each word once.
// x+, x−, b and aMont are runs of chunks polynomials laid back to back —
// polynomial c's limb l is the N words at (c·L + l)·N, L = outP.Levels() —
// the form a prepared tile's pairs and the apply's vector scratch hold: b
// the chunks' B halves, aMont their A halves in Montgomery form,
// MulScalar(a, 2^52), so the sweep reads no Shoup table. For the A half it
// sets outP = Σ_c x+_c ∘ a_c and outM = Σ_c x−_c ∘ a_c. Of the B half only
// dot products are wanted, so nothing is written per coefficient: per limb
// l and half h of the slots (h = 0 for [0, N/2), 1 for [N/2, N)) it sets
// dotP[l][h] = {hi, lo} = Σ_c Σ_i x+_c[i]·b_c[i] over the half, hi reduced
// mod q_l (a total below q_l·2^64, the range mod.BarrettReduce128 takes),
// and dotM[l][h] likewise for x−. With outM nil the pair is half-empty:
// there is no x−, and dotM is left alone. Every operand must be
// canonical; b is read as it is, in no Montgomery form.
func (r *Ring) MulCoeffMontDotPair(dotP, dotM [][2][2]uint64, outP, outM *Poly, xP, xM, b, aMont []uint64, chunks int) {
	lv := outP.Levels()
	n := r.N
	stride := lv * n
	pair := outM != nil
	if chunks < 1 || len(xP) < chunks*stride || len(b) < chunks*stride || len(aMont) < chunks*stride ||
		pair && (sameLevels(outP, outM) != lv || len(xM) < chunks*stride) {
		panic("ring: MulCoeffMontDotPair operands do not hold the chunks")
	}
	h := n / 2
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		q, qinv := m.Q, montInv(m.Q)
		for half, lo := range [2]int{0, h} {
			o := l*n + lo
			oP := outP.Coeffs[l][lo : lo+h]
			var oM, xm []uint64
			if pair {
				oM, xm = outM.Coeffs[l][lo:lo+h], xM[o:]
			}
			dp, dm, done := vec.MulMontDotPair(q, qinv, oP, oM, xP[o:], xm, b[o:], aMont[o:], stride, chunks)
			if !done {
				dp = montDotRows(m, oP, xP[o:], b[o:], aMont[o:], stride, chunks)
				if pair {
					dm = montDotRows(m, oM, xm, b[o:], aMont[o:], stride, chunks)
				}
			}
			dotP[l][half] = [2]uint64{m.ReduceBarrett(dp[0]), dp[1]}
			if pair {
				dotM[l][half] = [2]uint64{m.ReduceBarrett(dm[0]), dm[1]}
			}
		}
	}
	outP.IsNTT = true
	if pair {
		outM.IsNTT = true
	}
}

// montDotRows is the Go loop of MulCoeffMontDotPair for one streamed row
// over one row range, the per-chunk chain: out = Σ_c x_c∘a_c·2^-52, one
// Montgomery product a chunk added mod q, and the total Σ_c ⟨x_c, b_c⟩,
// its high word reduced mod q after each chunk; operand row c starts at
// c·stride.
func montDotRows(m mod.Modulus, out, x, b, a []uint64, stride, chunks int) (total [2]uint64) {
	q, qinv := m.Q, montInv(m.Q)
	for c := 0; c < chunks; c++ {
		o, add := c*stride, c > 0
		rx, rb, ra := x[o:o+len(out)], b[o:o+len(out)], a[o:o+len(out)]
		hi, lo := total[0], total[1]
		if q >= montR {
			montWideRow(m, out, rx, ra, 0, add)
			for i := range rx { // a product may reach 2^124: reduce each
				var cy uint64
				lo, cy = bits.Add64(lo, m.MulBarrett(rx[i], rb[i]), 0)
				hi += cy
			}
		} else {
			for i := range out {
				p := montMul(rx[i], ra[i], q, qinv)
				if add { // branch-free, as in MulCoeffMont
					p += out[i]
					p = min(p, p-q)
				}
				out[i] = p
				// A product is below 2^104: hi gains under 2^40 a
				// word, so it cannot wrap in a row under 2^24 words.
				ph, pl := bits.Mul64(rx[i], rb[i])
				var cy uint64
				lo, cy = bits.Add64(lo, pl, 0)
				hi += ph + cy
			}
		}
		total = [2]uint64{m.ReduceBarrett(hi), lo}
	}
	return total
}

// montR is the Montgomery radix of the MulCoeffMont… sweeps and the
// monomial split, the range of a 52-bit multiplier lane.
const montR = 1 << 52

// montWideRow sets out (+)= x∘y'·2^-52 mod q for a modulus at or above the
// radix, where the Montgomery product does not apply: multiply exactly,
// then by 2^-52. y' repeats each value of y over a run of 2^s slots (the
// monomial split's table; the other sweeps pass s = 0). It is the one wide
// path of every Montgomery sweep.
func montWideRow(m mod.Modulus, out, x, y []uint64, s int, add bool) {
	k := m.Inv(m.ReduceBarrett(montR))
	ks := m.ShoupPrecomp(k)
	for i := range out {
		p := m.MulShoup(m.MulBarrett(x[i], y[i>>s]), k, ks)
		if add { // branch-free, as in MulCoeffMont
			p += out[i]
			p = min(p, p-m.Q)
		}
		out[i] = p
	}
}

// montInv returns q^-1 mod 2^52 for odd q, by Newton's iteration: each
// step doubles the correct low bits, from the 3 that q·q ≡ 1 (mod 8) gives.
func montInv(q uint64) uint64 {
	inv := q
	for i := 0; i < 5; i++ {
		inv *= 2 - q*inv
	}
	return inv & (montR - 1)
}

// montMul returns x·y·2^-52 mod q, canonical, for x, y < q < 2^52 and
// qinv = montInv(q): the Go form of the MulMontDot kernel's product. With
// lo + hi·2^52 = x·y and m = lo·qinv mod 2^52, x·y − m·q is exactly
// (hi − ⌊m·q/2^52⌋)·2^52, and that difference lies in (−q, q).
func montMul(x, y, q, qinv uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	m := lo * qinv & (montR - 1)
	th, tl := bits.Mul64(m, q)
	d := (hi<<12 | lo>>52) - (th<<12 | tl>>52) // in (−q, q)
	return d + q&uint64(int64(d)>>63)
}

// MulCoeffShoupDualAdd multiplies one fixed operand into two accumulators:
// outB += aB ∘ b and outA += aA ∘ b, with bShoup = ShoupPrecompPoly(b) —
// two MulCoeffShoupAdd sweeps.
func (r *Ring) MulCoeffShoupDualAdd(outB, outA, aB, aA, b *Poly, bShoup [][]uint64) {
	r.MulCoeffShoupAdd(outB, aB, b, bShoup)
	r.MulCoeffShoupAdd(outA, aA, b, bShoup)
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
	spRow := p.Coeffs[lv-1][:r.N] // the special limb being divided out
	for l := 0; l < lv-1; l++ {
		r.drops[lv-1][l].Row(out.Coeffs[l][:r.N], p.Coeffs[l][:r.N], spRow)
	}
	out.IsNTT = false
}

// ModDownTo divides the coefficient-domain polynomial p by every limb it
// carries beyond out's, with rounding: the exit from the augmented basis
// in the coefficient domain (RESCALE); INTTModDownTo is the exit from the
// NTT domain. Limbs drop last first through pooled intermediates; p is
// left intact. For CHAM's single special limb this is exactly one
// ModDownInto.
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

// INTTModDownTo is INTT then ModDownTo for the NTT-domain polynomial p:
// out, in the coefficient domain, is p divided by every limb it carries
// beyond out's, with rounding — the exit from the resident augmented basis
// (the key-switch tail, the packing tree's merge and flush). The last limb
// is inverse-transformed first; then each remaining limb's inverse divides
// it out in its final stage (ntt.(*Table).InverseLazyDrop), so no
// coefficient-domain row of the full basis is written and read back. Only
// the last limb rides the transforms: any further drops run through
// ModDownTo, which for CHAM's single special limb never happens. p is
// consumed.
func (r *Ring) INTTModDownTo(out, p *Poly) {
	lv := p.Levels()
	if !p.IsNTT {
		panic("ring: INTTModDownTo of a coefficient-domain polynomial")
	}
	if out.Levels() >= lv {
		panic("ring: ModDown level mismatch")
	}
	sp := p.Coeffs[lv-1]
	r.Tables[lv-1].InverseLazy(sp)
	x := out
	if out.Levels() < lv-1 {
		x = r.GetPoly(lv - 1)
	}
	for l := 0; l < lv-1; l++ {
		r.Tables[l].InverseLazyDrop(x.Coeffs[l], p.Coeffs[l], sp, &r.drops[lv-1][l])
	}
	x.IsNTT = false
	if x != out {
		r.ModDownTo(out, x)
		r.PutPoly(x)
	}
	p.IsNTT = false
}
