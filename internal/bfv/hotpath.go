package bfv

import (
	"math/bits"

	"cham/internal/ring"
	"cham/internal/vec"
)

// Allocation-free encode/lift forms.

// EncodeRowInto writes EncodeRow's layout (Eq. 1) of a into all N words
// of c (the gap the layout skips is zeroed), canonical mod t. Prepare
// encodes each row chunk this way into its slab's first limb, then
// spreads it over the basis with ring.NTTLift from t, whose transforms
// centre each word as they load it. A negated entry enters the product
// as t − x, so that x = 0 gives t·scale ≡ 0. The body — every word but
// c[0] and the gap, a read backwards — runs on the vec.EncodeRow kernel
// where it takes t (odd, below 2^32), in whole blocks of eight up to the
// first block holding an entry at or above t; the Go loop runs the rest.
// It multiplies without a division: on one-word Barrett with ⌊2^64/t⌋
// while t < 2^32 keeps every product in a word (at most one t too high,
// as the quotient estimate is at most one low), on the two-word
// MulBarrett otherwise. An entry at or above t is reduced first; the
// division runs only for such an entry.
func (p Params) EncodeRowInto(c, a []uint64, scale uint64) {
	n := p.R.N
	if len(a) == 0 {
		panic("bfv: empty row")
	}
	if len(a) > n {
		panic("bfv: row longer than N")
	}
	c = c[:n]
	if scale == 0 {
		scale = 1
	}
	t := p.T.Q
	scale = reduce(scale, t)
	// Positions [1, N-len(a)] are the gap the layout skips; c[gap+j] reads
	// a[len(a)−1−j].
	gap := n - len(a) + 1
	for i := 1; i < gap; i++ {
		c[i] = 0
	}
	body := gap + vec.EncodeRow(t, scale, c[gap:], a[1:])
	if t>>32 != 0 {
		tm := p.T
		c[0] = tm.MulBarrett(reduce(a[0], t), scale)
		for i := body; i < n; i++ {
			c[i] = tm.MulBarrett(t-reduce(a[n-i], t), scale)
		}
		return
	}
	mu := p.T.BRC[0] // ⌊2^64/t⌋
	c[0] = mulNarrow(reduce(a[0], t), scale, t, mu)
	for i := body; i < n; i++ {
		c[i] = mulNarrow(t-reduce(a[n-i], t), scale, t, mu)
	}
}

// reduce is T.Reduce on bare words: entries arrive reduced, so the
// division runs only for a caller that hands in larger values.
func reduce(x, t uint64) uint64 {
	if x >= t {
		x %= t
	}
	return x
}

// mulNarrow returns x·scale mod t for x ≤ t < 2^32 and scale < t, mu =
// ⌊2^64/t⌋.
func mulNarrow(x, scale, t, mu uint64) uint64 {
	z := x * scale
	qhat, _ := bits.Mul64(z, mu)
	r := z - qhat*t
	return r - t&-((t-1-r)>>63) // −t iff r ≥ t
}

// LiftInto is Lift writing into a caller-owned polynomial; the plaintext
// coefficients must be in [0, t), checked here once per call. Because t is
// below every limb modulus, the centred lift needs no reduction: x maps to
// x when x ≤ t/2 and to q_l - t + x otherwise. It is the one lift with no
// transform after it (Lift, MulPlain's reference path), off the hot path,
// so it runs as a Go loop.
func (p Params) LiftInto(out *ring.Poly, pt *Plaintext) {
	if len(pt.Coeffs) != p.R.N {
		panic("bfv: plaintext length mismatch")
	}
	p.checkCoeffs(pt.Coeffs)
	t := p.T.Q
	half := t / 2
	for l, row := range out.Coeffs {
		negAdd := p.R.Moduli[l].Q - t
		row = row[:len(pt.Coeffs)]
		for i, v := range pt.Coeffs {
			neg := uint64(int64(half-v) >> 63) // all ones iff v > t/2
			row[i] = v + neg&negAdd
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
