// Package mod implements 64-bit modular arithmetic for NTT-friendly prime
// moduli, including the reduction strategies evaluated by the CHAM paper:
//
//   - generic 128-bit division (the portable reference),
//   - Barrett reduction with a two-word constant,
//   - Shoup multiplication for fixed multiplicands (NTT twiddle factors), and
//   - shift-add reduction for low-Hamming-weight moduli of the form
//     2^e2 + 2^e1 + 1 (CHAM §IV.A.3), where multiplication by the modulus
//     degenerates into three shifts and additions.
//
// All moduli are required to be odd and strictly below 2^62 so that lazy
// sums up to 4q never overflow a uint64.
package mod

import (
	"fmt"
	"math/big"
	"math/bits"
)

// MaxModulusBits bounds the supported modulus size. CHAM's largest modulus is
// the 39-bit special modulus; 62 leaves ample headroom for test moduli.
const MaxModulusBits = 62

// Modulus bundles a prime modulus with its precomputed reduction constants.
type Modulus struct {
	Q uint64 // the modulus itself

	// Barrett constant: floor(2^128 / Q) as (hi, lo) 64-bit words.
	BRC [2]uint64

	// Shift-add decomposition: Q == 1<<E2 + 1<<E1 + 1 when LowHW is true.
	LowHW  bool
	E2, E1 uint
}

// New returns a Modulus with all reduction constants precomputed.
// It panics if q is even, less than 3, or too large; use TryNew to get an
// error instead.
func New(q uint64) Modulus {
	m, err := TryNew(q)
	if err != nil {
		panic(err)
	}
	return m
}

// TryNew is like New but reports invalid moduli as errors.
func TryNew(q uint64) (Modulus, error) {
	switch {
	case q < 3:
		return Modulus{}, fmt.Errorf("mod: modulus %d too small", q)
	case q&1 == 0:
		return Modulus{}, fmt.Errorf("mod: modulus %d is even", q)
	case bits.Len64(q) > MaxModulusBits:
		return Modulus{}, fmt.Errorf("mod: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	m := Modulus{Q: q}
	m.BRC = barrettConstant(q)
	m.LowHW, m.E2, m.E1 = lowHWForm(q)
	return m, nil
}

// barrettConstant returns floor(2^128/q) as two 64-bit words (hi, lo).
func barrettConstant(q uint64) [2]uint64 {
	r := new(big.Int).Lsh(big.NewInt(1), 128)
	r.Quo(r, new(big.Int).SetUint64(q))
	lo := new(big.Int)
	hi, _ := new(big.Int).DivMod(r, new(big.Int).Lsh(big.NewInt(1), 64), lo)
	return [2]uint64{hi.Uint64(), lo.Uint64()}
}

// lowHWForm reports whether q == 2^e2 + 2^e1 + 1 with e2 > e1 > 0.
func lowHWForm(q uint64) (ok bool, e2, e1 uint) {
	if bits.OnesCount64(q) != 3 || q&1 == 0 {
		return false, 0, 0
	}
	r := q - 1
	e1 = uint(bits.TrailingZeros64(r))
	r >>= e1
	r--
	e2f := uint(bits.TrailingZeros64(r))
	if r != 1<<e2f {
		return false, 0, 0
	}
	return true, e1 + e2f, e1
}

// Add returns a+b mod q. Inputs must already be reduced.
func (m Modulus) Add(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns a-b mod q. Inputs must already be reduced.
func (m Modulus) Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + m.Q - b
}

// Neg returns -a mod q. Input must already be reduced.
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Reduce returns a mod q for an arbitrary uint64 a.
func (m Modulus) Reduce(a uint64) uint64 {
	if a < m.Q {
		return a
	}
	return a % m.Q
}

// ReduceBarrett returns a mod q for an arbitrary uint64 a via the Barrett
// constant — no hardware division. It is the fast path for reducing
// centred-lift magnitudes (|v| < 2^62) inside RESCALE and digit
// decomposition loops and for uniform sampling, where Reduce's division
// would dominate. One word of the constant is enough for a one-word
// input: ⌊a·⌊2^64/q⌋/2^64⌋ is ⌊a/q⌋ or one below it (the two reals differ
// by less than a/2^64 < 1), so one conditional subtraction finishes; for
// a < q the estimate is 0 and a comes back unchanged.
func (m Modulus) ReduceBarrett(a uint64) uint64 {
	qhat, _ := bits.Mul64(a, m.BRC[0])
	r := a - qhat*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// Reduce128 returns (hi·2^64 + lo) mod q using hardware division.
// It is the canonical correct reduction against which the fast paths are
// property-tested.
func (m Modulus) Reduce128(hi, lo uint64) uint64 {
	hi %= m.Q // bits.Div64 requires hi < q
	_, r := bits.Div64(hi, lo, m.Q)
	return r
}

// Mul returns a·b mod q via 128-bit division. Inputs need not be reduced.
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.Reduce128(hi, lo)
}

// MulBarrett returns a·b mod q via two-word Barrett reduction.
// Inputs must be reduced (< q).
func (m Modulus) MulBarrett(a, b uint64) uint64 {
	ahi, alo := bits.Mul64(a, b)
	return m.BarrettReduce128(ahi, alo)
}

// BarrettReduce128 reduces the 128-bit value hi·2^64+lo, which must be < q·2^64
// (always true for products of reduced operands), to the range [0, q).
func (m Modulus) BarrettReduce128(hi, lo uint64) uint64 {
	// qhat ~= floor((hi,lo) * BRC / 2^128); BRC = floor(2^128/q).
	t1hi, t1lo := bits.Mul64(hi, m.BRC[1])
	t2hi, t2lo := bits.Mul64(lo, m.BRC[0])
	t3hi, _ := bits.Mul64(lo, m.BRC[1])
	mid, c1 := bits.Add64(t1lo, t2lo, 0)
	_, c2 := bits.Add64(mid, t3hi, 0)
	qhat := hi*m.BRC[0] + t1hi + t2hi + c1 + c2
	r := lo - qhat*m.Q // mod 2^64; true remainder plus at most 2q
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// ShoupPrecomp returns floor(w·2^64/q), the companion word for MulShoup.
// w must be reduced (< q).
//
// No division: with BRC = ⌊2^128/q⌋ = hi·2^64 + lo, the estimate
// est = w·hi + ⌊w·lo/2^64⌋ is ⌊w·BRC/2^64⌋, and w·2^64/q exceeds w·BRC/2^64
// by w·(2^128 mod q)/(q·2^64) < w/2^64 < 1, so the quotient is est or
// est+1. The remainder w·2^64 − est·q is therefore in [0, 2q) and equals
// −est·q modulo 2^64; it reaching q is what tells the two apart.
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	// The reducing division runs only for a caller that breaks the contract.
	if w >= m.Q {
		w %= m.Q
	}
	return shoupPrecomp(w, m.Q, m.BRC[0], m.BRC[1])
}

// shoupPrecomp is ShoupPrecomp on bare words, w < q and (hi, lo) = BRC.
func shoupPrecomp(w, q, hi, lo uint64) uint64 {
	carry, _ := bits.Mul64(w, lo)
	est := w*hi + carry
	r := -(est * q)
	return est + (q-1-r)>>63 // +1 iff r ≥ q (r < 2q < 2^63)
}

// ShoupPrecompRow sets dst[i] = ShoupPrecomp(w[i]) over a row, with the
// modulus and its reciprocal held in registers across the loop.
func (m Modulus) ShoupPrecompRow(dst, w []uint64) {
	q, hi, lo := m.Q, m.BRC[0], m.BRC[1]
	dst = dst[:len(w)]
	for i, v := range w {
		if v >= q {
			v %= q
		}
		dst[i] = shoupPrecomp(v, q, hi, lo)
	}
}

// MulShoup returns a·w mod q where wp = ShoupPrecomp(w). The multiplicand w
// must be reduced; a may be any uint64. This is the fast path used for NTT
// twiddle factors, where w is known ahead of time.
func (m Modulus) MulShoup(a, w, wp uint64) uint64 {
	qhat, _ := bits.Mul64(a, wp)
	r := a*w - qhat*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MulQShiftAdd returns x·q mod 2^64 using the low-Hamming-weight
// decomposition — the three shifts and additions of CHAM §IV.A.3. It panics
// if the modulus does not have the special form.
func (m Modulus) MulQShiftAdd(x uint64) uint64 {
	if !m.LowHW {
		panic("mod: MulQShiftAdd on a modulus without low-Hamming-weight form")
	}
	return x<<m.E2 + x<<m.E1 + x
}

// MulShiftAdd returns a·b mod q via Barrett reduction in which the qhat·q
// product is realised with shifts and adds (the DSP-free datapath CHAM uses
// on FPGA). Results are identical to MulBarrett; only the multiplier
// structure differs. Inputs must be reduced.
func (m Modulus) MulShiftAdd(a, b uint64) uint64 {
	ahi, alo := bits.Mul64(a, b)
	t1hi, t1lo := bits.Mul64(ahi, m.BRC[1])
	t2hi, t2lo := bits.Mul64(alo, m.BRC[0])
	t3hi, _ := bits.Mul64(alo, m.BRC[1])
	mid, c1 := bits.Add64(t1lo, t2lo, 0)
	_, c2 := bits.Add64(mid, t3hi, 0)
	qhat := ahi*m.BRC[0] + t1hi + t2hi + c1 + c2
	r := alo - m.MulQShiftAdd(qhat)
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// Pow returns b^e mod q by square-and-multiply.
func (m Modulus) Pow(b, e uint64) uint64 {
	b = m.Reduce(b)
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = m.Mul(r, b)
		}
		b = m.Mul(b, b)
		e >>= 1
	}
	return r
}

// Inv returns a^-1 mod q. The modulus must be prime (Fermat inversion).
// It panics if a ≡ 0 mod q.
func (m Modulus) Inv(a uint64) uint64 {
	a = m.Reduce(a)
	if a == 0 {
		panic("mod: inverse of zero")
	}
	return m.Pow(a, m.Q-2)
}

// CenterLift maps a residue in [0,q) to its centered representative in
// (-q/2, q/2].
func (m Modulus) CenterLift(a uint64) int64 {
	if a > m.Q/2 {
		return int64(a) - int64(m.Q)
	}
	return int64(a)
}

// FromCentered maps a centered (possibly negative) integer to [0, q).
func (m Modulus) FromCentered(v int64) uint64 {
	r := v % int64(m.Q)
	if r < 0 {
		r += int64(m.Q)
	}
	return uint64(r)
}
