package ring

// NTT-resident forms of the permutation ops, the primitives behind the
// NTT-resident packing tree (DESIGN.md §12). The forward
// transform evaluates a at the odd root powers, slot j holding
// a(ψ^{2·brv(j)+1}), so:
//
//   - the automorphism a ↦ a(X^k) (odd k) permutes slots without touching
//     values: out(ψ^{2·brv(j)+1}) = a(ψ^{k·(2·brv(j)+1)}), and the odd
//     exponent k·(2·brv(j)+1) mod 2N is some 2t+1, stored at slot brv(t) —
//     one sign-free gather per limb instead of INTT → coefficient permute
//     (with negations) → NTT;
//   - multiplication by the monomial X^e is a pointwise multiply by the
//     NTT image of X^e, precomputed once per (e, limb) with Shoup
//     companions.
//
// Both are bit-identical to their coefficient-domain counterparts
// composed with the transforms they elide: every intermediate here is
// congruent to that schedule's and both paths emit canonical residues.

import (
	"math/bits"

	"cham/internal/vec"
)

func requireNTTDomain(ps ...*Poly) {
	for _, p := range ps {
		if !p.IsNTT {
			panic("ring: operation requires NTT domain")
		}
	}
}

// autoPermTable returns (building and caching on first use) the gather
// table of the automorphism X → X^k on NTT slots: out[j] = in[perm[j]].
func (r *Ring) autoPermTable(k int) []uint32 {
	if k%2 == 0 {
		panic("ring: automorphism index must be odd")
	}
	n2 := 2 * r.N
	kk := ((k % n2) + n2) % n2
	r.autoMu.RLock()
	perm, ok := r.autoPerm[kk]
	r.autoMu.RUnlock()
	if ok {
		return perm
	}
	r.autoMu.Lock()
	defer r.autoMu.Unlock()
	if perm, ok = r.autoPerm[kk]; ok {
		return perm
	}
	logN := bits.Len(uint(r.N)) - 1
	perm = make([]uint32, r.N)
	for j := 0; j < r.N; j++ {
		// Slot j evaluates at exponent 2·brv(j)+1; under φ_k it needs the
		// value at k·(2·brv(j)+1) mod 2N = 2t+1, which lives at slot brv(t).
		e := (2*int(brv(uint(j), logN)) + 1) * kk % n2
		perm[j] = uint32(brv(uint((e-1)/2), logN))
	}
	r.autoPerm[kk] = perm
	return perm
}

// brv reverses the low `width` bits of x (the forward transform's output
// ordering).
func brv(x uint, width int) uint {
	return uint(bits.Reverse64(uint64(x)) >> (64 - width))
}

// AutomorphNTT sets out = a(X^k) for odd k on NTT-domain polynomials: one
// cached gather per limb, no transforms and no sign flips. Bit-identical
// to NTT ∘ Automorph(·, k) ∘ INTT.
func (r *Ring) AutomorphNTT(out, a *Poly, k int) {
	sameLevels(out, a)
	requireNTTDomain(a)
	perm := r.autoPermTable(k)
	n := r.N
	for l := range a.Coeffs {
		ra, ro := a.Coeffs[l][:n], out.Coeffs[l][:n]
		// The kernel reads ra while it writes dst; permDst has already
		// moved an in-place call onto a scratch row.
		dst, sp := r.permDst(ro, ra)
		if !vec.Gather(dst[:n], ra, perm) {
			for j, src := range perm {
				dst[j] = ra[src]
			}
		}
		if sp != nil {
			copy(ro, dst)
			r.putScratch(sp)
		}
	}
	out.IsNTT = true
}

// AutomorphNTTAddInto sets out += a(X^k) for odd k on NTT-domain
// polynomials, fusing the gather with its accumulation — the packing
// tree's φ_k(diff) contribution lands in the running sum without a
// materialized intermediate. out must not alias a: every slot reads a at
// a permuted position some other slot of out may already have overwritten.
func (r *Ring) AutomorphNTTAddInto(out, a *Poly, k int) {
	lv := sameLevels(out, a)
	requireNTTDomain(out, a)
	perm := r.autoPermTable(k)
	n := r.N
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, ro := a.Coeffs[l][:n], out.Coeffs[l][:n]
		if &ro[0] == &ra[0] {
			panic("ring: AutomorphNTTAddInto operands alias")
		}
		if vec.GatherAdd(m.Q, ro, ra, perm) {
			continue
		}
		for j, src := range perm {
			ro[j] = m.Add(ro[j], ra[src])
		}
	}
}

// MonomialSplitNTT computes the packing tree's PACKTWOLWES operand pair in
// one sweep:
//
//	sum  = E + X^e·O
//	diff = E - X^e·O
//
// on NTT-domain polynomials, without materializing X^e·O: each slot reads
// E and O once, multiplies O by the cached NTT image of X^e, and writes
// both outputs. sum may alias E; diff must alias neither input.
func (r *Ring) MonomialSplitNTT(sum, diff, E, O *Poly, e int) {
	lv := sameLevels(sum, diff, E, O)
	requireNTTDomain(E, O)
	t := r.monoNTTTable(e)
	n := r.N
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		re, ro := E.Coeffs[l][:n], O.Coeffs[l][:n]
		rm, rs := t.vals[l][:n], t.shoup[l][:n]
		rsum, rdiff := sum.Coeffs[l][:n], diff.Coeffs[l][:n]
		if &rdiff[0] == &re[0] || &rdiff[0] == &ro[0] {
			panic("ring: MonomialSplitNTT diff aliases an input")
		}
		if vec.MonomialSplit(m.Q, rsum, rdiff, re, ro, rm, rs) {
			continue
		}
		for i := 0; i < n; i++ {
			x := re[i]
			y := m.MulShoup(ro[i], rm[i], rs[i])
			rdiff[i] = m.Sub(x, y)
			rsum[i] = m.Add(x, y)
		}
	}
	sum.IsNTT, diff.IsNTT = true, true
}

// monoTable holds the NTT image of X^e per limb of the full basis, with
// Shoup companions, ready for pointwise Shoup products.
type monoTable struct {
	vals, shoup [][]uint64
}

// monoNTTTable returns (building and caching on first use) the table for
// exponent e, normalized modulo 2N.
func (r *Ring) monoNTTTable(e int) *monoTable {
	n := r.N
	n2 := 2 * n
	ee := ((e % n2) + n2) % n2
	r.monoMu.RLock()
	t, ok := r.monoNTT[ee]
	r.monoMu.RUnlock()
	if ok {
		return t
	}
	r.monoMu.Lock()
	defer r.monoMu.Unlock()
	if t, ok = r.monoNTT[ee]; ok {
		return t
	}
	lv := len(r.Moduli)
	t = &monoTable{vals: make([][]uint64, lv), shoup: make([][]uint64, lv)}
	backing := make([]uint64, 2*lv*n)
	for l := 0; l < lv; l++ {
		t.vals[l], backing = backing[:n:n], backing[n:]
		t.shoup[l], backing = backing[:n:n], backing[n:]
		m := r.Moduli[l]
		// NTT(X^e): transform the basis monomial (X^{e-N} picks up the
		// negacyclic -1) rather than exponentiating ψ per slot.
		row := t.vals[l]
		for i := range row {
			row[i] = 0
		}
		if ee < n {
			row[ee] = 1
		} else {
			row[ee-n] = m.Q - 1
		}
		r.Tables[l].ForwardLazy(row)
		m.ShoupPrecompRow(t.shoup[l], row)
	}
	r.monoNTT[ee] = t
	return t
}
