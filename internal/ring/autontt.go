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
//     NTT image of X^e, precomputed once per (e, limb) in Montgomery form,
//     the form of every fixed operand. Slot j holds ψ^{e·(2·brv(j)+1)};
//     with 2^s the largest power of two dividing e mod 2N, ψ^e has order
//     2N/2^s, so the value depends only on the top log₂N−s bits of j and
//     stays constant over runs of 2^s consecutive slots. The table keeps
//     one value a run.
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
// E and O once, multiplies O by its run's value of the cached NTT image of
// X^e, and writes both outputs. sum may alias E and diff may alias O, so
// the split can run in place (Prepare's row pairs); diff must not alias E.
func (r *Ring) MonomialSplitNTT(sum, diff, E, O *Poly, e int) {
	lv := sameLevels(sum, diff, E, O)
	requireNTTDomain(E, O)
	t := r.monoNTTTable(e)
	n, s := r.N, t.logRun
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		q, qinv := m.Q, montInv(m.Q)
		re, ro, rm := E.Coeffs[l][:n], O.Coeffs[l][:n], t.vals[l]
		rsum, rdiff := sum.Coeffs[l][:n], diff.Coeffs[l][:n]
		if &rdiff[0] == &re[0] {
			panic("ring: MonomialSplitNTT diff aliases E")
		}
		if vec.MonomialSplit(q, qinv, rsum, rdiff, re, ro, rm, s) {
			continue
		}
		if q >= montR {
			// Past the radix the wide path writes the products into diff
			// (which may alias O, read slot by slot before it is written).
			montWideRow(m, rdiff, ro, rm, s, false)
			for i, y := range rdiff {
				x := re[i]
				rdiff[i], rsum[i] = m.Sub(x, y), m.Add(x, y)
			}
			continue
		}
		// Branch-free: on uniform operands each wrap is a coin flip.
		for k, w := range rm {
			for i := k << s; i < (k+1)<<s; i++ {
				x, y := re[i], montMul(ro[i], w, q, qinv)
				d, a := x-y, x+y
				rdiff[i], rsum[i] = d+q&uint64(int64(d)>>63), min(a, a-q)
			}
		}
	}
	sum.IsNTT, diff.IsNTT = true, true
}

// monoTable holds the NTT image of X^e per limb of the full basis by runs,
// in Montgomery form: slot j of the image is vals[l][j>>logRun]·2^-52 mod
// q_l, ready for the split's Montgomery products. A limb holds N>>logRun
// values.
type monoTable struct {
	logRun int
	vals   [][]uint64
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
	// Runs of 2^s slots, s the trailing zeros of e mod 2N; e = 0 and e = N
	// (X^N = -1) are one run.
	s := min(bits.TrailingZeros(uint(ee)), bits.Len(uint(n))-1)
	runs := n >> s
	lv := len(r.Moduli)
	t = &monoTable{logRun: s, vals: make([][]uint64, lv)}
	backing := make([]uint64, lv*runs)
	row := make([]uint64, n)
	for l := 0; l < lv; l++ {
		t.vals[l], backing = backing[:runs:runs], backing[runs:]
		m := r.Moduli[l]
		// NTT(X^e): transform the basis monomial (X^{e-N} picks up the
		// negacyclic -1) rather than exponentiating ψ per slot, then keep
		// the first slot of each run, times 2^52.
		clear(row)
		if ee < n {
			row[ee] = 1
		} else {
			row[ee-n] = m.Q - 1
		}
		r.Tables[l].ForwardLazy(row)
		r52 := m.Reduce(montR)
		for k := range t.vals[l] {
			t.vals[l][k] = m.MulBarrett(row[k<<s], r52)
		}
	}
	r.monoNTT[ee] = t
	return t
}
