// Package ref is a slow-but-obviously-correct reference model of the whole
// CHAM software stack, built on math/big integers instead of 64-bit RNS
// residues. Every operation is written from the textbook definition:
// schoolbook negacyclic convolution, naive DFT-style transforms, CRT basis
// compose/decompose, exact rounding division for RESCALE, digit-decomposed
// key switching, LWE extraction, and the PACKTWOLWES/PACKLWES tree — ending
// in an end-to-end HMVP whose outputs must match the optimized
// ring/rlwe/bfv/lwe/core pipeline bit for bit.
//
// Nothing here is meant to be fast. The only concession to speed is that
// the schoolbook convolution skips zero coefficients of its first operand
// (skipping a zero term is still the definition) and splits independent
// output coefficients across goroutines; both leave results exactly equal
// to the serial textbook loop.
package ref

import (
	"math/big"
	"math/bits"
	"runtime"
	"sync"
)

// Poly is a negacyclic polynomial over Z_Q[X]/(X^N+1) with every
// coefficient held as a big integer reduced into [0, Q).
type Poly struct {
	Coeffs []*big.Int
	Q      *big.Int
}

// NewPoly returns the zero polynomial of degree bound n modulo q.
func NewPoly(n int, q *big.Int) *Poly {
	p := &Poly{Coeffs: make([]*big.Int, n), Q: new(big.Int).Set(q)}
	for i := range p.Coeffs {
		p.Coeffs[i] = new(big.Int)
	}
	return p
}

// Copy deep-copies p.
func (p *Poly) Copy() *Poly {
	o := &Poly{Coeffs: make([]*big.Int, len(p.Coeffs)), Q: new(big.Int).Set(p.Q)}
	for i := range p.Coeffs {
		o.Coeffs[i] = new(big.Int).Set(p.Coeffs[i])
	}
	return o
}

// N returns the degree bound.
func (p *Poly) N() int { return len(p.Coeffs) }

// Equal reports whether p and o agree coefficient-wise (and share Q).
func (p *Poly) Equal(o *Poly) bool {
	if p.Q.Cmp(o.Q) != 0 || len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if p.Coeffs[i].Cmp(o.Coeffs[i]) != 0 {
			return false
		}
	}
	return true
}

// Add returns p + o mod Q.
func (p *Poly) Add(o *Poly) *Poly {
	out := NewPoly(len(p.Coeffs), p.Q)
	for i := range p.Coeffs {
		out.Coeffs[i].Add(p.Coeffs[i], o.Coeffs[i])
		out.Coeffs[i].Mod(out.Coeffs[i], p.Q)
	}
	return out
}

// Sub returns p - o mod Q.
func (p *Poly) Sub(o *Poly) *Poly {
	out := NewPoly(len(p.Coeffs), p.Q)
	for i := range p.Coeffs {
		out.Coeffs[i].Sub(p.Coeffs[i], o.Coeffs[i])
		out.Coeffs[i].Mod(out.Coeffs[i], p.Q)
	}
	return out
}

// Mul returns p·o mod (X^N+1, Q) by schoolbook negacyclic convolution:
//
//	out_k = Σ_{i+j=k} p_i·o_j - Σ_{i+j=k+N} p_i·o_j.
//
// Zero coefficients of p contribute nothing and are skipped; independent
// output coefficients are accumulated on separate goroutines. Both leave
// the result identical to the two-line textbook loop.
func (p *Poly) Mul(o *Poly) *Poly {
	n := len(p.Coeffs)
	out := NewPoly(n, p.Q)
	// Gather the non-zero support of p once; for sparse operands (matrix
	// rows, digit polynomials of zero ciphertexts) this collapses the work.
	support := make([]int, 0, n)
	for i, c := range p.Coeffs {
		if c.Sign() != 0 {
			support = append(support, i)
		}
	}
	if len(support) == 0 {
		return out
	}
	// For dense operands the schoolbook loop is quadratic in N; Kronecker
	// substitution computes the identical convolution through one big.Int
	// product (see mulKronecker). Tests assert both paths agree exactly.
	if len(support)*n >= 1<<18 {
		return p.mulKronecker(o)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			tmp := new(big.Int)
			for k := lo; k < hi; k++ {
				acc := out.Coeffs[k] // starts at zero
				for _, i := range support {
					// p_i pairs with o_j at j = k-i (positive term) or
					// j = k-i+N (negative wrap-around, X^N = -1).
					j := k - i
					if j >= 0 {
						tmp.Mul(p.Coeffs[i], o.Coeffs[j])
						acc.Add(acc, tmp)
					} else {
						tmp.Mul(p.Coeffs[i], o.Coeffs[j+n])
						acc.Sub(acc, tmp)
					}
				}
				acc.Mod(acc, p.Q)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// mulKronecker evaluates the same negacyclic convolution via Kronecker
// substitution: each polynomial is packed into a single huge integer with
// one fixed-width slot per coefficient, so the one big.Int multiplication
// computes every pairwise product, and slot k of the result is exactly the
// acyclic convolution sum Σ_{i+j=k} p_i·o_j (all terms non-negative, so
// slots never borrow). The negacyclic fold out_k = slot_k - slot_{k+N}
// then reduces modulo X^N + 1. Exactness needs only the slot width to
// exceed 2·bits(Q) + log2(N), which the width computation guarantees; the
// tests additionally assert bit-for-bit agreement with the schoolbook loop.
func (p *Poly) mulKronecker(o *Poly) *Poly {
	n := len(p.Coeffs)
	// Slot width in bytes: each slot holds at most n products of two
	// residues below Q, so 2·bits(Q) + log2(n) bits suffice; +2 bytes of
	// headroom keeps the bound comfortably strict.
	w := (2*p.Q.BitLen()+bits.Len(uint(n)))/8 + 2
	pack := func(x *Poly) *big.Int {
		buf := make([]byte, n*w)
		for i, c := range x.Coeffs {
			b := c.Bytes() // big-endian; right-align inside slot i
			end := len(buf) - i*w
			copy(buf[end-len(b):end], b)
		}
		return new(big.Int).SetBytes(buf)
	}
	z := new(big.Int).Mul(pack(p), pack(o))
	zb := z.Bytes()
	slot := func(i int) *big.Int {
		end := len(zb) - i*w
		if end <= 0 {
			return new(big.Int)
		}
		start := end - w
		if start < 0 {
			start = 0
		}
		return new(big.Int).SetBytes(zb[start:end])
	}
	out := NewPoly(n, p.Q)
	for k := 0; k < n; k++ {
		v := slot(k)
		v.Sub(v, slot(k+n))
		out.Coeffs[k].Mod(v, p.Q)
	}
	return out
}

// MulMonomial returns p·X^e for any integer e, with X^N = -1.
func (p *Poly) MulMonomial(e int) *Poly {
	n := len(p.Coeffs)
	e = ((e % (2 * n)) + 2*n) % (2 * n)
	out := NewPoly(n, p.Q)
	for i, c := range p.Coeffs {
		j := i + e
		v := new(big.Int).Set(c)
		if j >= 2*n {
			j -= 2 * n
		}
		if j >= n {
			j -= n
			v.Neg(v)
		}
		out.Coeffs[j].Mod(v, p.Q)
	}
	return out
}

// Automorph returns p(X^k) for odd k: coefficient i moves to exponent
// i·k mod 2N, with X^N = -1 folding the sign.
func (p *Poly) Automorph(k int) *Poly {
	n := len(p.Coeffs)
	n2 := 2 * n
	kk := ((k % n2) + n2) % n2
	out := NewPoly(n, p.Q)
	for i, c := range p.Coeffs {
		j := i * kk % n2
		v := new(big.Int).Set(c)
		if j >= n {
			j -= n
			v.Neg(v)
		}
		out.Coeffs[j].Mod(v, p.Q)
	}
	return out
}

// Centered returns the centred representative of coefficient i in
// (-Q/2, Q/2].
func (p *Poly) Centered(i int) *big.Int {
	half := new(big.Int).Rsh(p.Q, 1)
	v := new(big.Int).Set(p.Coeffs[i])
	if v.Cmp(half) > 0 {
		v.Sub(v, p.Q)
	}
	return v
}

// Ciphertext is the reference RLWE pair (B, A) over one composed modulus.
type Ciphertext struct {
	B, A *Poly
}

// Phase returns B + A·s, the noisy payload, where s is the secret key as a
// polynomial modulo the ciphertext modulus.
func (ct *Ciphertext) Phase(s *Poly) *Poly {
	return ct.B.Add(ct.A.Mul(s))
}
