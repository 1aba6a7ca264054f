package ntt

// Lazy-reduction transforms (Harvey): a butterfly reduces only what would
// otherwise leave the range its next use can take, and the value it writes
// is any representative below a stage bound. Two implementations share
// that contract and produce the same canonical output rows:
//
//   - the Go loops below, the portable path and the reference: every
//     value stays below 4q (forward) or 2q (inverse), one conditional
//     subtraction per butterfly input, which fits 64-bit words for any
//     q < 2^62;
//   - the vector kernels (internal/vec), on 52-bit lanes: with CHAM's
//     ≤ 39-bit moduli a lane has 13 or more bits of headroom, so a value
//     may grow for many stages and a butterfly reduces nothing. A schedule
//     derived from q and N picks the passes that must reduce; on a modulus
//     near 2^50 that is every stage (DESIGN.md §11 "The transforms").
//
// Both directions fold their trailing normalization pass into the final
// butterfly stage: the forward transform's full reduction and the inverse
// transform's N^-1 Shoup multiply happen as the last stage writes its
// outputs, removing one full read-modify-write sweep of the row each way.
// The outputs are bit-identical to a schedule that fully reduces after
// every butterfly (cg.go runs one; the tests compare) — every lazy
// intermediate is congruent to its reduced counterpart and the final stage
// emits canonical residues.
//
// Each direction also takes one conversion into the sweep it already makes
// over the row: ForwardLazyLift centres a residue of another modulus into
// this one as its first pass loads it (a key switch's digits, a Prepared
// row's plaintext), and InverseLazyDrop divides a dropped modulus out as
// its final stage writes (ModDown). On the kernels that saves a memory
// pass each; the Go paths run the conversion as a loop of its own.

import (
	"math/bits"

	"cham/internal/mod"
	"cham/internal/vec"
)

// ForwardLazy computes the in-place negacyclic NTT of a (natural
// coefficient order in, bit-reversed evaluation order out) with the
// iterative Cooley-Tukey decimation-in-time schedule and lazy reductions.
// Input values may be any representatives below 4q; output is fully
// reduced. This relaxed precondition is what lets digit-decomposition
// sweeps feed their [0, 3q) lazy lifts straight into the transform.
//
// The row goes to the vector kernel when the host has one; the Go loop
// below is the portable path and the kernel's reference. The loop's stage
// invariant: both butterfly outputs stay below 4q; each input is
// conditionally brought under 2q before use, so u+v and u+2q-v never
// overflow (4q < 2^64 for q < 2^62).
func (t *Table) ForwardLazy(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	if vec.ForwardNTT(t.M.Q, a, t.rootsFwd, t.rootsFwdShoup52) {
		return
	}
	m := t.M
	q := m.Q
	twoQ := 2 * q
	n := t.N
	span := n
	for blocks := 1; blocks < n>>1; blocks <<= 1 {
		span >>= 1
		for i := 0; i < blocks; i++ {
			w := t.rootsFwd[blocks+i]
			wp := t.rootsFwdShoup[blocks+i]
			base := 2 * i * span
			lo := a[base : base+span : base+span]
			hi := a[base+span : base+2*span]
			hi = hi[:span:span]
			for j := range lo {
				u := lo[j]
				if u >= twoQ {
					u -= twoQ
				}
				x := hi[j]
				qh, _ := bits.Mul64(x, wp)
				v := x*w - qh*q // Shoup product without the final correction: < 2q for any x
				lo[j] = u + v
				hi[j] = u + twoQ - v
			}
		}
	}
	// Final stage (span == 1) with the two-step full reduction folded into
	// the butterfly writes.
	half := n >> 1
	for i := 0; i < half; i++ {
		w := t.rootsFwd[half+i]
		wp := t.rootsFwdShoup[half+i]
		j := 2 * i
		u := a[j]
		if u >= twoQ {
			u -= twoQ
		}
		x := a[j+1]
		qh, _ := bits.Mul64(x, wp)
		v := x*w - qh*q
		r0 := u + v
		r1 := u + twoQ - v
		if r0 >= twoQ {
			r0 -= twoQ
		}
		if r0 >= q {
			r0 -= q
		}
		if r1 >= twoQ {
			r1 -= twoQ
		}
		if r1 >= q {
			r1 -= q
		}
		a[j] = r0
		a[j+1] = r1
	}
}

// InverseLazy computes the in-place inverse negacyclic NTT (bit-reversed
// in, natural order out) with the Gentleman-Sande schedule and lazy
// reductions: butterfly values stay in [0, 2q) and the N^-1 normalization
// rides the final stage's Shoup multiplies, skipping one conditional
// subtraction per butterfly and the whole trailing scaling pass. Input
// values must be below 2q; output is fully reduced. As in ForwardLazy,
// the vector kernel takes the row when the host has one.
func (t *Table) InverseLazy(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	if vec.InverseNTT(t.M.Q, a, t.rootsInv, t.rootsInvShoup52, t.nInv, t.nInvShoup>>12, t.nInvRoot, t.nInvRootShoup>>12) {
		return
	}
	m := t.M
	q := m.Q
	twoQ := 2 * q
	n := t.N
	span := 1
	for blocks := n >> 1; blocks > 1; blocks >>= 1 {
		base := 0
		for i := 0; i < blocks; i++ {
			w := t.rootsInv[blocks+i]
			wp := t.rootsInvShoup[blocks+i]
			lo := a[base : base+span : base+span]
			hi := a[base+span : base+2*span]
			hi = hi[:span:span]
			for j := range lo {
				u, v := lo[j], hi[j] // both < 2q
				s := u + v           // < 4q
				if s >= twoQ {
					s -= twoQ
				}
				lo[j] = s
				d := u + twoQ - v
				qh, _ := bits.Mul64(d, wp)
				hi[j] = d*w - qh*q
			}
			base += 2 * span
		}
		span <<= 1
	}
	// Final stage (blocks == 1): each output gets exactly one more Shoup
	// multiply, so N^-1 folds into it — u+v by nInv, u-v by w·nInv — with
	// the strict MulShoup restoring canonical form.
	half := n >> 1
	wn, wnp := t.nInvRoot, t.nInvRootShoup
	nv, nvp := t.nInv, t.nInvShoup
	lo := a[:half:half]
	hi := a[half:]
	hi = hi[:half:half]
	for j := range lo {
		u, v := lo[j], hi[j]
		s := u + v
		qh, _ := bits.Mul64(s, nvp)
		r := s*nv - qh*q
		if r >= q {
			r -= q
		}
		lo[j] = r
		d := u + twoQ - v
		qh, _ = bits.Mul64(d, wnp)
		r = d*wn - qh*q
		if r >= q {
			r -= q
		}
		hi[j] = r
	}
}

// ForwardLazyLift sets out to the forward transform of the centred lift of
// src, canonical residues of a source modulus qFrom: each x is taken as x,
// or x − qFrom where x > qFrom/2, reduced into this table's modulus. out
// may be src itself; otherwise the two must not overlap.
//
// The kernel lifts each word in its first pass with no reduction (vec
// documents the bound); the Go path lifts the row into [0, 3q) first —
// ReduceBarrett(x), plus 2q − (qFrom mod q) where the lift is negative —
// and transforms it in place.
func (t *Table) ForwardLazyLift(out, src []uint64, qFrom uint64) {
	if len(out) != t.N || len(src) != t.N {
		panic("ntt: length mismatch")
	}
	if vec.ForwardNTTLift(t.M.Q, out, src, t.rootsFwd, t.rootsFwdShoup52, qFrom) {
		return
	}
	m := t.M
	half := qFrom / 2
	negAdd := 2*m.Q - m.ReduceBarrett(qFrom)
	for i, x := range src {
		neg := uint64(int64(half-x) >> 63) // all ones iff x > half
		out[i] = m.ReduceBarrett(x) + neg&negAdd
	}
	t.ForwardLazy(out)
}

// Drop holds the constants of one limb of ModDown: dividing a row over this
// table's modulus q by a dropped modulus p with rounding,
// out = (a − centred(sp))·p^-1 mod q, where sp holds the row's canonical
// residues mod p. Build it once per (p, q) with NewDrop.
type Drop struct {
	m                     mod.Modulus
	half, pModQ           uint64 // p/2 and p mod q
	pInv, pInvShoup       uint64 // p^-1 mod q, 64-bit companion
	negPInv, negPInvShoup uint64 // −p^-1 mod q, 52-bit companion
	// The inverse transform's final-stage constants with p^-1 folded in,
	// N^-1·p^-1 and that times the last twiddle, 52-bit companions.
	nInvP, nInvPShoup, nInvRootP, nInvRootPShoup uint64
	p                                            uint64
}

// NewDrop returns the constants for dropping the modulus p, coprime to q,
// from a row over this table's modulus.
func (t *Table) NewDrop(p uint64) Drop {
	m := t.M
	pInv := m.Inv(m.Reduce(p))
	negPInv := m.Neg(pInv)
	nInvP := m.Mul(t.nInv, pInv)
	nInvRootP := m.Mul(t.nInvRoot, pInv)
	return Drop{
		m: m, p: p, half: p / 2, pModQ: m.Reduce(p),
		pInv: pInv, pInvShoup: m.ShoupPrecomp(pInv),
		negPInv: negPInv, negPInvShoup: m.ShoupPrecomp(negPInv) >> 12,
		nInvP: nInvP, nInvPShoup: m.ShoupPrecomp(nInvP) >> 12,
		nInvRootP: nInvRootP, nInvRootPShoup: m.ShoupPrecomp(nInvRootP) >> 12,
	}
}

// Row sets out = (a − centred(sp))·p^-1 mod q on coefficient-domain rows:
// a canonical mod q, sp canonical mod p. out may alias a.
func (d *Drop) Row(out, a, sp []uint64) {
	m := d.m
	out = out[:len(a)]
	if vec.ModDownRow(m.Q, out, a, sp, d.half, d.pModQ, d.pInv, d.pInvShoup) {
		return
	}
	twoQ := 2 * m.Q
	sp = sp[:len(out)]
	for i := range out {
		// d ≡ a - [sp centred] mod q. Branch-free: always subtract the
		// reduced residue of sp, then add back p (mod q) exactly when the
		// centred lift is negative — the mask is the sign bit of half − x,
		// so the 50/50-taken branch of the centred comparison never
		// reaches the predictor. The sum is below 4q (< 2^64 for q <
		// 2^62); MulShoup accepts any word and restores canonical form.
		x := sp[i]
		neg := uint64(int64(d.half-x) >> 63) // all ones iff x > half
		out[i] = m.MulShoup(a[i]+twoQ-m.ReduceBarrett(x)+neg&d.pModQ, d.pInv, d.pInvShoup)
	}
}

// InverseLazyDrop is InverseLazy of a followed by d's ModDown: out =
// (INTT(a) − centred(sp))·p^-1 mod q, canonical, for a below 2q and sp
// canonical mod p. a is left as scratch; out may be a, sp must not overlap
// out.
//
// The kernel folds p^-1 into the final stage's N^-1 and writes out as that
// stage goes: each output costs the two Shoup products it took as an
// inverse then a ModDown row, with one memory pass fewer. The Go path is
// the inverse in place, then Row.
func (t *Table) InverseLazyDrop(out, a, sp []uint64, d *Drop) {
	if len(out) != t.N || len(a) != t.N || len(sp) != t.N {
		panic("ntt: length mismatch")
	}
	if vec.InverseNTTDrop(t.M.Q, out, a, sp, t.rootsInv, t.rootsInvShoup52,
		d.nInvP, d.nInvPShoup, d.nInvRootP, d.nInvRootPShoup, d.p, d.negPInv, d.negPInvShoup) {
		return
	}
	t.InverseLazy(a)
	d.Row(out, a, sp)
}
