package ref

import (
	"math/big"

	"cham/internal/ring"
	"cham/internal/rlwe"
)

// Decomposed (hybrid) key switching over big integers, mirroring
// rlwe.DecomposeInto + rlwe.KeySwitchAccumulateNTT + ring.ModDownTo from
// the definition: the a-part is split into one centred digit per normal
// limb, each digit is convolved with the matching key row over the FULL
// (augmented) modulus, and the accumulated pair is divided by the special
// modulus with exact rounding back to the normal basis.

// SwitchingKey is a reference-form switching key: one (B_j, A_j) pair per
// normal limb, as coefficient-domain polynomials modulo the full composed
// modulus Q·P.
type SwitchingKey struct {
	Bs, As []*Poly
}

// ComposeSwitchingKey converts an optimized rlwe.SwitchingKey (full basis,
// NTT domain) into reference form. The inverse transform used here is the
// ring's own — key material is an input to the model, not an operation
// under test, and the transform itself is differentially verified against
// ForwardDFT/InverseDFT elsewhere.
func ComposeSwitchingKey(r *ring.Ring, swk *rlwe.SwitchingKey, moduli []uint64) *SwitchingKey {
	out := &SwitchingKey{
		Bs: make([]*Poly, len(swk.Bs)),
		As: make([]*Poly, len(swk.As)),
	}
	for j := range swk.Bs {
		b := swk.Bs[j].Copy()
		a := swk.As[j].Copy()
		r.INTT(b)
		r.INTT(a)
		out.Bs[j] = Compose(b, moduli)
		out.As[j] = Compose(a, moduli)
	}
	return out
}

// decomposeDigit returns digit j of a: each coefficient's residue modulo
// moduli[j], centred into [-(q_j-1)/2, (q_j-1)/2], then re-embedded modulo
// fullQ. This is the RNS digit decomposition of the hybrid key switch.
func decomposeDigit(a *Poly, qj uint64, fullQ *big.Int) *Poly {
	out := NewPoly(len(a.Coeffs), fullQ)
	for i, c := range a.Coeffs {
		out.Coeffs[i].Mod(centeredScalar(c, qj), fullQ)
	}
	return out
}

// KeySwitchDeferred re-encrypts the phase of the bare a-part under the
// switching key with BOTH divisions DEFERRED: it returns the raw digit·key
// accumulations modulo the full basis (c0 = Σ_j d_j·B_j, c1 = Σ_j d_j·A_j,
// un-rescaled). This is the reference form of rlwe.KeySwitchAccumulateNTT —
// the deferred packing tree adds many raw pairs before dividing once per
// part.
func KeySwitchDeferred(a *Poly, swk *SwitchingKey, moduli []uint64, normalLevels int) (*Poly, *Poly) {
	fullQ := ModulusProduct(moduli)
	c0 := NewPoly(len(a.Coeffs), fullQ)
	c1 := NewPoly(len(a.Coeffs), fullQ)
	for j := 0; j < normalLevels; j++ {
		d := decomposeDigit(a, moduli[j], fullQ)
		c0 = c0.Add(d.Mul(swk.Bs[j]))
		c1 = c1.Add(d.Mul(swk.As[j]))
	}
	return c0, c1
}

// KeySwitch re-encrypts the phase of the bare a-part under the switching
// key: it returns the (b, a) contribution pair modulo the normal-basis
// modulus. moduli is the FULL basis; normalLevels counts the normal limbs.
// The caller adds the original b-part, exactly as rlwe.KeySwitchInto does.
func KeySwitch(a *Poly, swk *SwitchingKey, moduli []uint64, normalLevels int) (*Poly, *Poly) {
	c0, c1 := KeySwitchDeferred(a, swk, moduli, normalLevels)
	return ModDownTo(c0, moduli, normalLevels), ModDownTo(c1, moduli, normalLevels)
}

// AutomorphCt applies X -> X^k to the ciphertext and key-switches back
// under the original key (the reference of rlwe.AutomorphCtInto): the
// permuted b-part rides along unchanged and the switched a-part
// contribution is added to it.
func AutomorphCt(ct *Ciphertext, k int, swk *SwitchingKey, moduli []uint64, normalLevels int) *Ciphertext {
	phiB := ct.B.Automorph(k)
	phiA := ct.A.Automorph(k)
	ksB, ksA := KeySwitch(phiA, swk, moduli, normalLevels)
	return &Ciphertext{B: ksB.Add(phiB), A: ksA}
}

// DecryptCoeff decrypts one plaintext coefficient of a ciphertext: it
// computes the phase B + A·s, centres coefficient idx, and applies the BFV
// rounding ⌊t·v/Q⌉ mod t. s is the secret key modulo the ciphertext
// modulus; q is that modulus and t the plaintext modulus.
func DecryptCoeff(ct *Ciphertext, s *Poly, t uint64, idx int) uint64 {
	phase := ct.Phase(s)
	return RoundToT(phase.Centered(idx), phase.Q, t)
}

// RoundToT maps a centred value v modulo q to ⌊t·v/q⌉ mod t — the BFV
// decryption rounding, with the same half-up Euclidean rounding as
// bfv.Decrypt.
func RoundToT(v *big.Int, q *big.Int, t uint64) uint64 {
	tB := new(big.Int).SetUint64(t)
	num := new(big.Int).Mul(v, tB)
	num.Add(num, new(big.Int).Rsh(q, 1))
	num.Div(num, q) // floor division (q > 0)
	num.Mod(num, tB)
	return num.Uint64()
}
