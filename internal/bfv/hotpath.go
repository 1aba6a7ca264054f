package bfv

import "cham/internal/ring"

// Allocation-free encode/lift variants used by the prepared-matrix path.

// EncodeRowInto is EncodeRow (Eq. 1) writing into a caller-owned plaintext,
// overwriting all N coefficients (the gap the row layout skips is zeroed).
func (p Params) EncodeRowInto(pt *Plaintext, a []uint64, scale uint64) {
	n := p.R.N
	if len(a) > n {
		panic("bfv: row longer than N")
	}
	if len(pt.Coeffs) != n {
		panic("bfv: plaintext length mismatch")
	}
	if scale == 0 {
		scale = 1
	}
	pt.Coeffs[0] = p.T.Mul(p.T.Reduce(a[0]), scale)
	for j := 1; j < len(a); j++ {
		pt.Coeffs[n-j] = p.T.Mul(p.T.Neg(p.T.Reduce(a[j])), scale)
	}
	// Positions [1, N-len(a)] are untouched by the layout above.
	gap := pt.Coeffs[1 : n-len(a)+1]
	for i := range gap {
		gap[i] = 0
	}
}

// LiftInto is Lift writing into a caller-owned polynomial. Because t is
// below every limb modulus, the centred lift needs no reduction: x maps to
// x when x ≤ t/2 and to q_l - t + x otherwise.
func (p Params) LiftInto(out *ring.Poly, pt *Plaintext) {
	if len(pt.Coeffs) != p.R.N {
		panic("bfv: plaintext length mismatch")
	}
	t := p.T.Q
	half := t / 2
	for l := range out.Coeffs {
		q := p.R.Moduli[l].Q
		ro := out.Coeffs[l]
		for i, x := range pt.Coeffs {
			if x > half {
				ro[i] = q - t + x
			} else {
				ro[i] = x
			}
		}
	}
	out.IsNTT = false
}
