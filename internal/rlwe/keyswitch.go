package rlwe

import (
	"math/big"
	"math/rand"
	"sync"

	"cham/internal/ring"
)

// Hybrid (RNS-decomposed) key switching with a special modulus, the scheme
// implied by CHAM's parameter choice p ≥ q_i (39-bit special vs 35-bit
// ciphertext limbs). A switching key from s' to s holds one digit per
// normal limb:
//
//	B_j = -A_j·s + P·ê_j·s' + E_j   over the full basis (NTT domain),
//
// where P is the product of the special limbs and ê_j is the CRT idempotent
// of Q (ê_j ≡ 1 mod q_j, ≡ 0 mod q_i for i≠j). Switching decomposes the
// ciphertext's a-part into its centred RNS digits d_j = [a]_{q_j}, so the
// digit magnitude is ≤ q_j/2 and the post-rescale noise is
// ~ √N·q_max·e/(2P) — a few bits at CHAM's sizes.
//
// A switch has two halves with very different reuse behaviour:
//
//  1. the digit decomposition of the a-part — centred RNS lifts to the
//     full basis plus one forward NTT per digit and limb — which depends
//     only on the ciphertext (DecomposeInto), and
//  2. the digit·key MULTPOLY accumulation, which depends on the switching
//     key (KeySwitchAccumulateNTT).
//
// KeySwitchInto and AutomorphCtInto compose the two with the inverse
// transforms' ModDown exit, ring.INTTModDownTo; the packing tree
// (lwe.packTwo) calls them
// directly so it can defer the division. The decomposition is a pooled
// artifact so a caller can pay it once and reuse it: across the two key
// operands of one switch (c0 and c1 share the digit-NTTs by construction),
// across several switching keys applied to the same ciphertext, and — as
// pooled scratch — across all merges one pack-fold worker executes, which
// keeps the digit buffers cache-resident instead of bouncing through the
// pool per merge.
//
// The decomposition has no sweep of its own: each digit row reaches every
// limb through ring.NTTLift, whose forward transforms centre the digit's
// residues as their first pass loads them and emit canonical residues —
// the digit's own limb included, where the lift is the identity. Every
// *Into form writes a caller-owned ciphertext
// and draws its temporaries from the ring's pool, so a warm switch touches
// the heap zero times. Results are bit-identical to internal/ref's
// big-integer key switch at every step.

// SwitchingKeyGen produces a key that re-encrypts phases under srcKey
// (coefficient domain, full basis) to the params' secret key sk.
func (p Params) SwitchingKeyGen(rng *rand.Rand, sk *SecretKey, srcKey *ring.Poly) *SwitchingKey {
	if !p.HasSpecialModulus() {
		panic("rlwe: key switching requires a special modulus")
	}
	r := p.R
	lv := r.Levels()

	pBig := big.NewInt(1)
	for _, q := range p.SpecialModuli() {
		pBig.Mul(pBig, new(big.Int).SetUint64(q))
	}
	qBig := r.Modulus(p.NormalLevels)

	srcNTT := srcKey.Copy()
	r.NTT(srcNTT)

	swk := &SwitchingKey{
		Bs: make([]*ring.Poly, p.NormalLevels),
		As: make([]*ring.Poly, p.NormalLevels),
	}
	for j := 0; j < p.NormalLevels; j++ {
		a := r.NewPoly(lv)
		r.UniformPoly(rng, a)
		a.IsNTT = true
		b := r.NewPoly(lv)
		r.CBDPoly(rng, b, p.Eta)
		r.NTT(b)

		// w_j = P·ê_j, with ê_j = (Q/q_j)·[(Q/q_j)^-1 mod q_j] mod Q.
		qj := new(big.Int).SetUint64(r.Moduli[j].Q)
		qOver := new(big.Int).Quo(qBig, qj)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qOver, qj), qj)
		eHat := new(big.Int).Mul(qOver, inv)
		eHat.Mod(eHat, qBig)
		w := eHat.Mul(eHat, pBig)

		term := r.NewPoly(lv)
		r.MulScalarBig(term, srcNTT, w)

		p.subMulSecret(b, a, sk)
		r.Add(b, b, term)
		swk.Bs[j], swk.As[j] = b, a
	}
	swk.Precompute(r)
	return swk
}

// AutomorphismKeyGen produces the switching key for the automorphism
// X -> X^k, i.e. from φ_k(s) back to s.
func (p Params) AutomorphismKeyGen(rng *rand.Rand, sk *SecretKey, k int) *SwitchingKey {
	phiS := p.R.NewPoly(p.R.Levels())
	p.R.Automorph(phiS, sk.Value, k)
	return p.SwitchingKeyGen(rng, sk, phiS)
}

// Precompute fills the switching key's Montgomery images, BsMont and
// AsMont, which let the digit·key accumulation reduce without a companion
// word per coefficient. Every key that reaches a switch is precomputed —
// SwitchingKeyGen and internal/wire's decoder both end with this call —
// and KeySwitchAccumulateNTT panics on one that is not. Safe to call more
// than once; not safe concurrently with use of the key.
func (k *SwitchingKey) Precompute(r *ring.Ring) {
	if k.BsMont != nil {
		return
	}
	bs := make([]*ring.Poly, len(k.Bs))
	as := make([]*ring.Poly, len(k.As))
	for j := range k.Bs {
		bs[j], as[j] = r.NewPoly(k.Bs[j].Levels()), r.NewPoly(k.As[j].Levels())
		r.MulScalar(bs[j], k.Bs[j], 1<<52)
		r.MulScalar(as[j], k.As[j], 1<<52)
	}
	k.BsMont, k.AsMont = bs, as
}

// Decomposition holds the RNS digit decomposition of one a-part in the
// full basis, NTT domain: Digits[j] = NTT(lift([a]_{q_j})). Obtain with
// GetDecomposition, fill with DecomposeInto, release with PutDecomposition.
type Decomposition struct {
	Digits []*ring.Poly
}

// decShells recycles Decomposition headers; the polynomial buffers come
// from the ring's pool (two pointers, ring-agnostic — one process-wide
// pool is safe, mirroring ctShells).
var decShells sync.Pool

// GetDecomposition borrows a pooled decomposition with one full-basis
// digit polynomial per normal limb. Contents are ARBITRARY until
// DecomposeInto fills them. Release with PutDecomposition.
func (p Params) GetDecomposition() *Decomposition {
	d, ok := decShells.Get().(*Decomposition)
	if !ok {
		d = &Decomposition{}
	}
	if cap(d.Digits) < p.NormalLevels {
		d.Digits = make([]*ring.Poly, p.NormalLevels)
	}
	d.Digits = d.Digits[:p.NormalLevels]
	lv := p.R.Levels()
	for j := range d.Digits {
		if d.Digits[j] == nil || d.Digits[j].Levels() != lv {
			d.Digits[j] = p.R.GetPoly(lv)
		}
	}
	return d
}

// PutDecomposition returns a decomposition obtained from GetDecomposition
// to the pool. The caller must not use d afterwards.
func (p Params) PutDecomposition(d *Decomposition) {
	if d == nil {
		return
	}
	for j := range d.Digits {
		p.R.PutPoly(d.Digits[j])
		d.Digits[j] = nil
	}
	decShells.Put(d)
}

// DecomposeInto fills dec with the digit decomposition of the normal-basis
// coefficient-domain polynomial a: for each normal limb j,
// dec.Digits[j] = NTT(lift_centred([a]_{q_j})) over the full basis.
// This is the ciphertext-dependent half of a key switch, hoisted out so it
// can be reused across switching keys (decomposition commutes with every
// key, and with automorphisms: D_j(φ_k(a)) = φ_k(D_j(a))).
func (p Params) DecomposeInto(dec *Decomposition, a *ring.Poly) {
	r := p.R
	for j := 0; j < p.NormalLevels; j++ {
		r.NTTLift(dec.Digits[j], a.Coeffs[j][:r.N], r.Moduli[j].Q)
	}
}

// KeySwitchAccumulateNTT is the key-dependent half of a key switch, left
// in the NTT domain with the ModDown deferred: it accumulates both parts
// into the caller's full-basis accumulators, btAcc += Σ_j dec_j ∘ B_j and
// aAcc += Σ_j dec_j ∘ A_j. Nothing is inverted or rescaled here —
// KeySwitchInto hands it a zeroed pair and finishes one switch on the
// spot, the packing tree hands it a node's two parts and defers both
// divisions to its flush. btAcc and aAcc must be full-basis NTT-domain
// polynomials holding canonical residues.
func (p Params) KeySwitchAccumulateNTT(btAcc, aAcc *ring.Poly, dec *Decomposition, swk *SwitchingKey) {
	if swk.BsMont == nil {
		panic("rlwe: SwitchingKey used before Precompute")
	}
	// Digits run in fused pairs, so each accumulator row is written once
	// per pair instead of once per digit; the CHAM basis is one pair.
	r := p.R
	j := 0
	for ; j+1 < len(dec.Digits); j += 2 {
		d0, d1 := dec.Digits[j], dec.Digits[j+1]
		r.MulCoeffMontPairAdd(btAcc, d0, swk.BsMont[j], d1, swk.BsMont[j+1])
		r.MulCoeffMontPairAdd(aAcc, d0, swk.AsMont[j], d1, swk.AsMont[j+1])
	}
	if j < len(dec.Digits) {
		r.MulCoeffMont(btAcc, dec.Digits[j], swk.BsMont[j], true)
		r.MulCoeffMont(aAcc, dec.Digits[j], swk.AsMont[j], true)
	}
}

// KeySwitch converts a normal-basis coefficient-domain ciphertext whose
// phase decrypts under some source key into one decrypting under the
// params' key, using the matching switching key. This is the paper's
// KEYSWITCH stage (the tail of PACKTWOLWES, pipeline stages 5~9). It
// allocates its result; the benchmark pins this form.
func (p Params) KeySwitch(ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	out := &Ciphertext{
		B: p.R.NewPoly(p.NormalLevels),
		A: p.R.NewPoly(p.NormalLevels),
	}
	p.KeySwitchInto(out, ct, swk)
	return out
}

// KeySwitchInto is KeySwitch writing into a caller-owned normal-basis
// ciphertext. out may alias ct.
func (p Params) KeySwitchInto(out, ct *Ciphertext, swk *SwitchingKey) {
	if ct.IsNTT() {
		panic("rlwe: KeySwitch requires coefficient domain")
	}
	if ct.Levels() != p.NormalLevels || out.Levels() != p.NormalLevels {
		panic("rlwe: KeySwitch requires normal-basis ciphertexts")
	}
	p.switchInto(out, ct.B, ct.A, swk)
}

// AutomorphCtInto applies X -> X^k to the ciphertext and key-switches the
// result back under the original key: out = KeySwitch(φ_k(ct)). swk must
// be the key produced by AutomorphismKeyGen(·, k). Input and output are
// normal-basis, coefficient-domain ciphertexts; out may alias ct.
func (p Params) AutomorphCtInto(out, ct *Ciphertext, k int, swk *SwitchingKey) {
	r := p.R
	if ct.IsNTT() {
		panic("rlwe: AutomorphCt requires coefficient domain")
	}
	if ct.Levels() != p.NormalLevels || out.Levels() != p.NormalLevels {
		panic("rlwe: AutomorphCt requires normal-basis ciphertexts")
	}
	// (φb, φa) decrypts under φ(s); switch from φ(s) back to s, the
	// permuted b riding along unchanged.
	phiB := r.GetPoly(p.NormalLevels)
	phiA := r.GetPoly(p.NormalLevels)
	r.Automorph(phiB, ct.B, k)
	r.Automorph(phiA, ct.A, k)
	p.switchInto(out, phiB, phiA, swk)
	r.PutPoly(phiB)
	r.PutPoly(phiA)
}

// switchInto sets out = (b, 0) + ModDown(INTT(Σ_j D_j(a) ∘ K_j)) for the
// normal-basis coefficient-domain pair (b, a): decompose, accumulate into
// a zeroed full-basis pair, then leave the NTT domain with the special
// limbs divided back out. out's polynomials may be b and a themselves; all
// temporaries are pooled.
func (p Params) switchInto(out *Ciphertext, b, a *ring.Poly, swk *SwitchingKey) {
	r := p.R
	lv := r.Levels()
	dec := p.GetDecomposition()
	p.DecomposeInto(dec, a)
	c0, c1 := r.GetPoly(lv), r.GetPoly(lv)
	c0.Zero()
	c1.Zero()
	c0.IsNTT, c1.IsNTT = true, true
	p.KeySwitchAccumulateNTT(c0, c1, dec, swk)
	p.PutDecomposition(dec)
	r.INTTModDownTo(out.A, c1)
	kb := r.GetPoly(p.NormalLevels)
	r.INTTModDownTo(kb, c0)
	r.Add(out.B, kb, b)
	r.PutPoly(kb)
	r.PutPoly(c0)
	r.PutPoly(c1)
}
