package ring

// Table-I PPU operations. All of these act on coefficient-domain
// polynomials; they panic on NTT-domain inputs because the coefficient
// permutations they perform are only meaningful there.

func requireCoeffDomain(ps ...*Poly) {
	for _, p := range ps {
		if p.IsNTT {
			panic("ring: operation requires coefficient domain")
		}
	}
}

// Rev sets out = [a_{N-1}, ..., a_1, a_0], the coefficient reversal (REV).
func (r *Ring) Rev(out, a *Poly) {
	sameLevels(out, a)
	requireCoeffDomain(a)
	n := r.N
	for l := range a.Coeffs {
		ra, ro := a.Coeffs[l], out.Coeffs[l]
		for i := 0; i < n/2; i++ {
			lo, hi := ra[i], ra[n-1-i]
			ro[i], ro[n-1-i] = hi, lo
		}
	}
	out.IsNTT = false
}

// ShiftNeg sets out = [a_{N-s}, ..., a_{N-1}, -a_0, ..., -a_{N-s-1}]
// (Table I SHIFTNEG): a circular left rotation by N-s positions with the
// wrapped-around head negated. Algebraically it is multiplication by the
// monomial -X^s = X^{s-N} in Z_q[X]/(X^N+1). s must be in [0, N).
func (r *Ring) ShiftNeg(out, a *Poly, s int) {
	sameLevels(out, a)
	requireCoeffDomain(a)
	if s < 0 || s >= r.N {
		panic("ring: shift out of range")
	}
	n := r.N
	for l := range a.Coeffs {
		m := r.Moduli[l]
		ra, ro := a.Coeffs[l], out.Coeffs[l]
		dst, sp := r.permDst(ro, ra)
		for i := 0; i < s; i++ {
			dst[i] = ra[n-s+i]
		}
		for i := s; i < n; i++ {
			dst[i] = m.Neg(ra[i-s])
		}
		if sp != nil {
			copy(ro, dst)
			r.putScratch(sp)
		}
	}
	out.IsNTT = false
}

// permDst returns the buffer a permutation should write to: ro itself when
// it does not alias ra, or a pooled scratch row (with its pool token) when
// it does, so in-place calls stay correct without a per-call allocation.
func (r *Ring) permDst(ro, ra []uint64) ([]uint64, *[]uint64) {
	if &ro[0] != &ra[0] {
		return ro, nil
	}
	sp := r.getScratch()
	return *sp, sp
}

// MulMonomial sets out = a · X^e where e may be any integer; exponents are
// taken modulo 2N with X^N = -1. It is the primitive underlying MULTMONO,
// RLWE-TO-LWE and LWE-TO-RLWE.
func (r *Ring) MulMonomial(out, a *Poly, e int) {
	sameLevels(out, a)
	requireCoeffDomain(a)
	n := r.N
	e = ((e % (2 * n)) + 2*n) % (2 * n)
	neg := false
	if e >= n {
		e -= n
		neg = true
	}
	for l := range a.Coeffs {
		m := r.Moduli[l]
		ra, ro := a.Coeffs[l], out.Coeffs[l]
		dst, sp := r.permDst(ro, ra)
		// (X^e·a)_k = a_{k-e} for k >= e, -a_{N+k-e} for k < e; the global
		// -1 of e >= N folds into each branch.
		if neg {
			for k := 0; k < e; k++ {
				dst[k] = ra[n+k-e]
			}
			for k := e; k < n; k++ {
				dst[k] = m.Neg(ra[k-e])
			}
		} else {
			for k := 0; k < e; k++ {
				dst[k] = m.Neg(ra[n+k-e])
			}
			copy(dst[e:], ra[:n-e])
		}
		if sp != nil {
			copy(ro, dst)
			r.putScratch(sp)
		}
	}
	out.IsNTT = false
}

// Automorph sets out = a(X^k) for odd k (Table I AUTOMORPH): coefficient
// a_i moves to position i·k mod N with sign (-1)^{⌊i·k/N⌋}. k must be odd
// so the map is a ring automorphism of Z_q[X]/(X^N+1).
func (r *Ring) Automorph(out, a *Poly, k int) {
	sameLevels(out, a)
	requireCoeffDomain(a)
	if k%2 == 0 {
		panic("ring: automorphism index must be odd")
	}
	n := r.N
	kk := ((k % (2 * n)) + 2*n) % (2 * n)
	for l := range a.Coeffs {
		m := r.Moduli[l]
		ra, ro := a.Coeffs[l], out.Coeffs[l]
		dst, sp := r.permDst(ro, ra)
		for i := 0; i < n; i++ {
			j := i * kk % (2 * n)
			if j < n {
				dst[j] = ra[i]
			} else {
				dst[j-n] = m.Neg(ra[i])
			}
		}
		if sp != nil {
			copy(ro, dst)
			r.putScratch(sp)
		}
	}
	out.IsNTT = false
}
