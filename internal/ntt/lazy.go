package ntt

// Lazy-reduction transforms: butterflies keep values in [0, 4q) and only
// reduce when they would overflow, the standard Harvey optimization. On
// CHAM's ≤39-bit moduli the headroom to 2^64 allows the full transform
// with one conditional correction per butterfly input — this is the
// software trick that narrows the gap to the calibrated CPU model (and
// mirrors the lazy pipelines real HE libraries use).
//
// Both directions fold their trailing normalization pass into the final
// butterfly stage: the forward transform's two-step full reduction and the
// inverse transform's N^-1 Shoup multiply happen as the last stage writes
// its outputs, removing one full read-modify-write sweep of the row each
// way. The outputs are bit-identical to a schedule that fully reduces
// after every butterfly (cg.go runs one; the tests compare) — every lazy
// intermediate is congruent to its reduced counterpart and the final
// stage emits canonical residues.

import (
	"math/bits"

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
// below is the portable path and the kernel's reference. Stage invariant:
// both butterfly outputs stay below 4q; each input is conditionally
// brought under 2q before use, so u+v and u+2q-v never overflow (4q <
// 2^64 for q < 2^62).
func (t *Table) ForwardLazy(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	if vec.ForwardNTT(t.M.Q, a, t.rootsFwd, t.rootsFwdShoup) {
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
	if vec.InverseNTT(t.M.Q, a, t.rootsInv, t.rootsInvShoup, t.nInv, t.nInvShoup, t.nInvRoot, t.nInvRootShoup) {
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
