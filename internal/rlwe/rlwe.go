// Package rlwe implements the RLWE encryption layer CHAM builds on:
// secret/public keys, symmetric and public-key encryption, decryption,
// automorphisms, and GHS-style key switching with a special modulus
// (the paper's 39-bit p). Plaintext encoding/decoding lives in package bfv.
//
// Ciphertexts are pairs (b, a) with b = -a·s + (payload) + e, so the phase
// b + a·s recovers payload + noise. The RNS basis is the ring's modulus
// chain with the special modulus as the last limb; "normal" ciphertexts
// live in the basis prefix without it, "augmented" ones (§II-F) include it.
//
// The random source is an injectable *rand.Rand so that tests and
// benchmarks are reproducible. This prototype is NOT hardened for
// production key material (no constant-time guarantees, no CSPRNG).
package rlwe

import (
	"fmt"
	"math/rand"

	"cham/internal/ring"
)

// Params fixes the ring and noise distribution.
type Params struct {
	R *ring.Ring
	// NormalLevels is the number of limbs of a normal (non-augmented)
	// ciphertext; the remaining limbs form the special modulus basis.
	// CHAM: 2 normal limbs {q0,q1} + 1 special limb {p}.
	NormalLevels int
	// Eta is the centred-binomial noise parameter (variance eta/2).
	Eta int
}

// NewParams validates and returns Params.
func NewParams(r *ring.Ring, normalLevels, eta int) (Params, error) {
	if normalLevels < 1 || normalLevels > r.Levels() {
		return Params{}, fmt.Errorf("rlwe: normalLevels %d out of range [1,%d]", normalLevels, r.Levels())
	}
	if eta < 1 {
		return Params{}, fmt.Errorf("rlwe: eta must be positive")
	}
	for _, m := range r.Moduli {
		if uint64(eta) >= m.Q {
			return Params{}, fmt.Errorf("rlwe: eta=%d not below limb %d", eta, m.Q)
		}
	}
	return Params{R: r, NormalLevels: normalLevels, Eta: eta}, nil
}

// HasSpecialModulus reports whether the basis includes special limbs.
func (p Params) HasSpecialModulus() bool { return p.NormalLevels < p.R.Levels() }

// SpecialModulus returns the product of the special limbs as uint64 factors.
func (p Params) SpecialModuli() []uint64 {
	var out []uint64
	for _, m := range p.R.Moduli[p.NormalLevels:] {
		out = append(out, m.Q)
	}
	return out
}

// SecretKey holds the ternary secret in coefficient domain (Value) and NTT
// domain (ValueNTT), both over the full basis.
type SecretKey struct {
	Value    *ring.Poly
	ValueNTT *ring.Poly
}

// PublicKey is an encryption of zero over the full basis, NTT domain.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts a phase under source key s' to the target key s.
// It holds one RNS digit per normal limb (see keyswitch.go):
// Bs[j] = -As[j]·s + P·ê_j·s' + E_j over the full basis, NTT domain.
//
// BsShoup/AsShoup are the per-coefficient Shoup companion words of Bs/As
// (the key is a fixed multiplicand in every switch), filled by Precompute.
// Invariant: a key handed to a switch has them — build keys with
// SwitchingKeyGen or the codec, or call Precompute after filling Bs/As.
type SwitchingKey struct {
	Bs, As           []*ring.Poly
	BsShoup, AsShoup [][][]uint64
}

// Ciphertext is an RLWE pair. Both polynomials always share level count and
// domain.
type Ciphertext struct {
	B, A *ring.Poly
}

// Levels returns the number of RNS limbs of the ciphertext.
func (ct *Ciphertext) Levels() int { return ct.B.Levels() }

// IsNTT reports the ciphertext domain.
func (ct *Ciphertext) IsNTT() bool { return ct.B.IsNTT }

// Copy deep-copies the ciphertext.
func (ct *Ciphertext) Copy() *Ciphertext {
	return &Ciphertext{B: ct.B.Copy(), A: ct.A.Copy()}
}

// KeyGen samples a fresh ternary secret key.
func (p Params) KeyGen(rng *rand.Rand) *SecretKey {
	s := p.R.NewPoly(p.R.Levels())
	p.R.TernaryPoly(rng, s)
	sn := s.Copy()
	p.R.NTT(sn)
	return &SecretKey{Value: s, ValueNTT: sn}
}

// PublicKeyGen derives a public key (an encryption of zero on the full
// basis).
func (p Params) PublicKeyGen(rng *rand.Rand, sk *SecretKey) *PublicKey {
	lv := p.R.Levels()
	a := p.R.NewPoly(lv)
	p.R.UniformPoly(rng, a)
	a.IsNTT = true // uniform in either domain; declare NTT
	e := p.R.NewPoly(lv)
	p.R.CBDPoly(rng, e, p.Eta)
	p.R.NTT(e)
	b := p.R.NewPoly(lv)
	p.R.MulCoeff(b, a, sk.ValueNTT)
	p.R.Neg(b, b)
	p.R.Add(b, b, e)
	return &PublicKey{B: b, A: a}
}

// EncryptZeroSym returns a symmetric encryption of zero with `levels` limbs
// in coefficient domain: (b, a) = (-a·s + e, a). The noise is sampled
// straight into b and a·s subtracted from it in one sweep.
func (p Params) EncryptZeroSym(rng *rand.Rand, sk *SecretKey, levels int) *Ciphertext {
	r := p.R
	a := r.NewPoly(levels)
	r.UniformPoly(rng, a)
	a.IsNTT = true // uniform in either domain; declare NTT
	b := r.NewPoly(levels)
	r.CBDPoly(rng, b, p.Eta)
	r.NTT(b)
	for l := 0; l < levels; l++ {
		m := r.Moduli[l]
		ra, rs, rb := a.Coeffs[l], sk.ValueNTT.Coeffs[l], b.Coeffs[l]
		for i := range rb {
			rb[i] = m.Sub(rb[i], m.MulBarrett(ra[i], rs[i]))
		}
	}
	ct := &Ciphertext{B: b, A: a}
	ctINTT(r, ct)
	return ct
}

// EncryptZeroPK returns a public-key encryption of zero with `levels` limbs
// in coefficient domain: (b, a) = (pk.B·u + e0, pk.A·u + e1).
func (p Params) EncryptZeroPK(rng *rand.Rand, pk *PublicKey, levels int) *Ciphertext {
	r := p.R
	u := r.NewPoly(levels)
	r.TernaryPoly(rng, u)
	r.NTT(u)
	e0 := r.NewPoly(levels)
	r.CBDPoly(rng, e0, p.Eta)
	r.NTT(e0)
	e1 := r.NewPoly(levels)
	r.CBDPoly(rng, e1, p.Eta)
	r.NTT(e1)

	b := r.NewPoly(levels)
	r.MulCoeff(b, truncate(pk.B, levels), u)
	r.Add(b, b, e0)
	a := r.NewPoly(levels)
	r.MulCoeff(a, truncate(pk.A, levels), u)
	r.Add(a, a, e1)
	ct := &Ciphertext{B: b, A: a}
	ctINTT(r, ct)
	return ct
}

// Phase returns b + a·s over the ciphertext's limbs, in coefficient domain:
// the noisy payload.
func (p Params) Phase(ct *Ciphertext, sk *SecretKey) *ring.Poly {
	out := p.R.NewPoly(ct.Levels())
	p.PhaseInto(out, ct, sk)
	return out
}

// PhaseInto is Phase writing into a caller-owned polynomial with the
// ciphertext's limb count, which is also its only scratch: a is copied
// there and transformed, multiplied by s, and b joins on whichever side
// of the inverse transform it already is.
func (p Params) PhaseInto(out *ring.Poly, ct *Ciphertext, sk *SecretKey) {
	r := p.R
	out.CopyFrom(ct.A)
	if !out.IsNTT {
		r.NTT(out)
	}
	r.MulCoeff(out, out, truncate(sk.ValueNTT, ct.Levels()))
	if ct.B.IsNTT {
		r.Add(out, out, ct.B)
		r.INTT(out)
	} else {
		r.INTT(out)
		r.Add(out, out, ct.B)
	}
}

// truncate returns a view of p limited to the first `levels` limbs.
func truncate(p *ring.Poly, levels int) *ring.Poly {
	if p.Levels() == levels {
		return p
	}
	if p.Levels() < levels {
		panic("rlwe: not enough limbs")
	}
	return &ring.Poly{Coeffs: p.Coeffs[:levels], IsNTT: p.IsNTT}
}

// ctINTT moves both halves to coefficient domain.
func ctINTT(r *ring.Ring, ct *Ciphertext) {
	if ct.B.IsNTT {
		r.INTT(ct.B)
	}
	if ct.A.IsNTT {
		r.INTT(ct.A)
	}
}

// Add sets out = ct0 + ct1 component-wise. Operands must share levels and
// domain; out may alias either operand.
func (p Params) Add(out, ct0, ct1 *Ciphertext) {
	p.R.Add(out.B, ct0.B, ct1.B)
	p.R.Add(out.A, ct0.A, ct1.A)
}

// Sub sets out = ct0 - ct1 component-wise.
func (p Params) Sub(out, ct0, ct1 *Ciphertext) {
	p.R.Sub(out.B, ct0.B, ct1.B)
	p.R.Sub(out.A, ct0.A, ct1.A)
}

// MulPlainNTT multiplies the ciphertext (NTT domain) by a plaintext
// polynomial already in NTT domain — pipeline stage 2 (MULTPOLY).
func (p Params) MulPlainNTT(out, ct *Ciphertext, pt *ring.Poly) {
	p.R.MulCoeff(out.B, ct.B, pt)
	p.R.MulCoeff(out.A, ct.A, pt)
}

// MulMonomial multiplies the ciphertext by X^e (coefficient domain).
func (p Params) MulMonomial(out, ct *Ciphertext, e int) {
	p.R.MulMonomial(out.B, ct.B, e)
	p.R.MulMonomial(out.A, ct.A, e)
}

// Rescale divides an augmented ciphertext by the special modulus with
// rounding (RESCALE, pipeline stage 4), returning a normal-basis
// ciphertext. Input must be in coefficient domain with full levels.
func (p Params) Rescale(ct *Ciphertext) *Ciphertext {
	out := &Ciphertext{
		B: p.R.NewPoly(p.NormalLevels),
		A: p.R.NewPoly(p.NormalLevels),
	}
	p.RescaleInto(out, ct)
	return out
}
