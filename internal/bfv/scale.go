package bfv

import (
	"fmt"
	"math/bits"

	"cham/internal/mod"
	"cham/internal/ring"
)

// Scaling between the plaintext ring and the ciphertext ring without
// leaving the RNS limbs: up by Δ = ⌊Q/t⌋ at encryption, down by t/Q with
// rounding at decryption. Both run on per-limb words and one 128-bit
// accumulator; the constants are fixed by (basis prefix, t) and built once
// in NewParams.
//
// Rounding. Write the phase x ∈ [0, Q) through its limbs x_l as
// x = Σ y_l·(Q/q_l) − u·Q with y_l = [x_l·(Q/q_l)^-1]_{q_l} and an integer
// 0 ≤ u < k (k limbs). Split t·y_l = a_l·q_l + r_l with 0 ≤ r_l < q_l. Then
//
//	t·x + ⌊Q/2⌋ = (Σ a_l − u·t)·Q + Σ r_l·(Q/q_l) + ⌊Q/2⌋,
//
// so ⌊(t·x + ⌊Q/2⌋)/Q⌋ ≡ Σ a_l + ⌊(Σ r_l·(Q/q_l) + ⌊Q/2⌋)/Q⌋ (mod t): the
// u·t term vanishes, which is also why the phase needs no centring (x and
// x − Q differ by t in the quotient). Each r_l·(Q/q_l) is below Q, so the
// inner numerator is below (k + ½)·Q and its quotient is one of 0 … k —
// found by comparing against Q, 2Q, …, kQ. NewParams requires
// (k + 1)·Q ≤ 2^128 for the full basis, so numerator and multiples fit
// two words; the CHAM basis has Q < 2^109.

// levelConsts are the scaling constants for ciphertexts of one limb count.
type levelConsts struct {
	limbs     []limbConsts
	multiples [][2]uint64 // j·Q for j = 1 … k as (hi, lo)
	half      [2]uint64   // ⌊Q/2⌋ as (hi, lo)
}

// limbConsts holds what the two sweeps read per limb, side by side so the
// rounding's inner loop touches one cache line per limb.
type limbConsts struct {
	q                 uint64
	delta, deltaShoup uint64 // Δ mod q_l with its Shoup companion
	inv, invShoup     uint64 // (Q/q_l)^-1 mod q_l with its Shoup companion
	tShoup            uint64 // ⌊t·2^64/q_l⌋: the companion of t in limb l
	wHi, wLo          uint64 // Q/q_l
}

// mul128 returns (hi, lo)·c and whether the product left 128 bits.
func mul128(hi, lo, c uint64) (rhi, rlo uint64, overflow bool) {
	carry, rlo := bits.Mul64(lo, c)
	top, rhi := bits.Mul64(hi, c)
	rhi, c2 := bits.Add64(rhi, carry, 0)
	return rhi, rlo, top != 0 || c2 != 0
}

// newLevelConsts builds the constants for the first k limbs of the ring.
func newLevelConsts(r *ring.Ring, t mod.Modulus, k int) (levelConsts, error) {
	tooWide := func() error {
		return fmt.Errorf("bfv: %d-limb basis too wide: decryption needs (k+1)·Q ≤ 2^128", k)
	}
	moduli := r.Moduli[:k]
	c := levelConsts{limbs: make([]limbConsts, k), multiples: make([][2]uint64, k)}
	// Q in two words, and Q mod t.
	qHi, qLo, qModT := uint64(0), uint64(1), uint64(1)
	for _, m := range moduli {
		var over bool
		if qHi, qLo, over = mul128(qHi, qLo, m.Q); over {
			return c, tooWide()
		}
		qModT = t.Mul(qModT, m.Q)
	}
	c.half = [2]uint64{qHi >> 1, qLo>>1 | qHi<<63}
	// (k+1)·Q must not carry out; the first k multiples are kept.
	var mHi, mLo uint64
	for j := 0; j <= k; j++ {
		var c0, c1 uint64
		mLo, c0 = bits.Add64(mLo, qLo, 0)
		mHi, c1 = bits.Add64(mHi, qHi, c0)
		if c1 != 0 {
			return c, tooWide()
		}
		if j < k {
			c.multiples[j] = [2]uint64{mHi, mLo}
		}
	}
	for l, m := range moduli {
		// Q = Δ·t + (Q mod t) and q_l | Q, so Δ ≡ −(Q mod t)·t^-1 (mod q_l).
		delta := m.Neg(m.Mul(qModT, m.Inv(t.Q)))
		wHi, wLo, wMod := uint64(0), uint64(1), uint64(1)
		for j, o := range moduli {
			if j != l {
				wHi, wLo, _ = mul128(wHi, wLo, o.Q)
				wMod = m.Mul(wMod, o.Q)
			}
		}
		inv := m.Inv(wMod)
		c.limbs[l] = limbConsts{
			q: m.Q, delta: delta, deltaShoup: m.ShoupPrecomp(delta),
			inv: inv, invShoup: m.ShoupPrecomp(inv),
			tShoup: m.ShoupPrecomp(t.Q), wHi: wHi, wLo: wLo,
		}
	}
	return c, nil
}

// addScaled sets b += Δ·pt for a coefficient-domain b, Δ = ⌊Q/t⌋ at b's
// limb count: each coefficient is lifted through its centred
// representative (x ≤ t/2 stays, larger x becomes q_l − t + x) and
// multiplied by Δ mod q_l. A plaintext shorter than N touches only its
// own coefficients; a coefficient at or above t is not refused here —
// MulShoup takes any word, so it stays correct modulo q_l.
func (p Params) addScaled(b *ring.Poly, pt *Plaintext) {
	if len(pt.Coeffs) > p.R.N {
		panic("bfv: plaintext longer than N")
	}
	t := p.T.Q
	half := t / 2
	for l, c := range p.levels[b.Levels()-1].limbs {
		m := p.R.Moduli[l]
		negAdd := m.Q - t
		d, ds := c.delta, c.deltaShoup
		rb := b.Coeffs[l]
		for i, x := range pt.Coeffs {
			neg := uint64(int64(half-x) >> 63) // all ones iff x > t/2
			rb[i] = m.Add(rb[i], m.MulShoup(x+neg&negAdd, d, ds))
		}
	}
}

// roundInto sets out[i] = ⌊t·x_i/Q⌉ mod t for the coefficient-domain
// phase x, by the identity at the top of this file.
func (p Params) roundInto(out []uint64, phase *ring.Poly) {
	k := &p.levels[phase.Levels()-1]
	t := p.T.Q
	rows := phase.Coeffs
	for i := range out {
		sum := uint64(0) // Σ a_l mod t
		accHi, accLo := k.half[0], k.half[1]
		for l := range k.limbs {
			c := &k.limbs[l]
			// y = [x_l·(Q/q_l)^-1]_{q_l}, canonical.
			qhat, _ := bits.Mul64(rows[l][i], c.invShoup)
			y := rows[l][i]*c.inv - qhat*c.q
			y -= c.q & -((c.q - 1 - y) >> 63)
			// t·y = a·q + r, from the Shoup quotient (exact or one low).
			a, _ := bits.Mul64(y, c.tShoup)
			r := y*t - a*c.q
			over := (c.q - 1 - r) >> 63 // 1 iff r ≥ q
			a += over
			r -= c.q & -over
			sum += a // a < t
			sum -= t & -((t - 1 - sum) >> 63)
			hi, lo := bits.Mul64(r, c.wLo)
			var carry uint64
			accLo, carry = bits.Add64(accLo, lo, 0)
			accHi, _ = bits.Add64(accHi, hi+r*c.wHi, carry)
		}
		v := uint64(0)
		for _, jq := range k.multiples {
			_, borrow := bits.Sub64(accLo, jq[1], 0)
			_, borrow = bits.Sub64(accHi, jq[0], borrow)
			v += 1 - borrow
		}
		sum += v // v ≤ k, so this rarely runs even once
		for sum >= t {
			sum -= t
		}
		out[i] = sum
	}
}
