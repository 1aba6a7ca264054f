package bfv

import (
	"math/bits"

	"cham/internal/ring"
	"cham/internal/vec"
)

// Allocation-free encode/lift variants used by the prepared-matrix path.

// EncodeRowInto is EncodeRow (Eq. 1) writing into a caller-owned plaintext,
// overwriting all N coefficients (the gap the row layout skips is zeroed).
// The scale multiplies without a division: on one-word Barrett with
// ⌊2^64/t⌋ while t < 2^32 keeps every product in a word (at most one t too
// high, as the quotient estimate is at most one low), on the two-word
// MulBarrett otherwise. A negated entry enters the product as t − x, so
// that x = 0 gives t·scale ≡ 0.
func (p Params) EncodeRowInto(pt *Plaintext, a []uint64, scale uint64) {
	n := p.R.N
	if len(a) == 0 {
		panic("bfv: empty row")
	}
	if len(a) > n {
		panic("bfv: row longer than N")
	}
	if len(pt.Coeffs) != n {
		panic("bfv: plaintext length mismatch")
	}
	if scale == 0 {
		scale = 1
	}
	t := p.T.Q
	// red is T.Reduce on a local: entries arrive reduced, so the division
	// runs only for a caller that hands in larger values.
	red := func(x uint64) uint64 {
		if x >= t {
			x %= t
		}
		return x
	}
	scale = red(scale)
	c := pt.Coeffs
	if t>>32 == 0 {
		mu := p.T.BRC[0] // ⌊2^64/t⌋
		mul := func(x uint64) uint64 {
			z := x * scale
			qhat, _ := bits.Mul64(z, mu)
			r := z - qhat*t
			return r - t&-((t-1-r)>>63) // −t iff r ≥ t
		}
		c[0] = mul(red(a[0]))
		for j := 1; j < len(a); j++ {
			c[n-j] = mul(t - red(a[j]))
		}
	} else {
		tm := p.T
		c[0] = tm.MulBarrett(red(a[0]), scale)
		for j := 1; j < len(a); j++ {
			c[n-j] = tm.MulBarrett(t-red(a[j]), scale)
		}
	}
	// Positions [1, N-len(a)] are untouched by the layout above.
	gap := c[1 : n-len(a)+1]
	for i := range gap {
		gap[i] = 0
	}
}

// LiftInto is Lift writing into a caller-owned polynomial; the plaintext
// coefficients must be in [0, t), checked here once per call. Because t is
// below every limb modulus, the centred lift needs no reduction: x maps to
// x when x ≤ t/2 and to q_l - t + x otherwise — which is the cross-limb
// lift of ring.CentredLiftRow with source modulus t (for x < t < q_l its
// reduction is the identity) and the added constant q_l - t, so each row
// runs on that kernel.
func (p Params) LiftInto(out *ring.Poly, pt *Plaintext) {
	if len(pt.Coeffs) != p.R.N {
		panic("bfv: plaintext length mismatch")
	}
	p.checkCoeffs(pt.Coeffs)
	t := p.T.Q
	half := t / 2
	for l, row := range out.Coeffs {
		q := p.R.Moduli[l].Q
		negAdd := q - t
		row = row[:len(pt.Coeffs)]
		if vec.CentredLift(q, row, pt.Coeffs, half, negAdd) {
			continue
		}
		for i, x := range pt.Coeffs {
			neg := uint64(int64(half-x) >> 63) // all ones iff x > t/2
			row[i] = x + neg&negAdd
		}
	}
	out.IsNTT = false
}

// checkCoeffs panics unless every plaintext coefficient is in [0, t): the
// lift assumes it, and both the vector kernel and the Go loop would
// otherwise agree on a residue that is not reduced. One OR-reduce: the
// top bit of x | (t-1-x) is set exactly when x ≥ 2^63 or x ≥ t.
func (p Params) checkCoeffs(x []uint64) {
	top := p.T.Q - 1
	var or uint64
	for _, v := range x {
		or |= v | (top - v)
	}
	if or>>63 != 0 {
		panic("bfv: plaintext coefficient out of range")
	}
}
