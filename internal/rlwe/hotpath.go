package rlwe

// Allocation-free variants of the key-switching pipeline. The *Into forms
// write into caller-owned ciphertexts and draw every temporary from the
// ring's buffer pool, so a warm PACKTWOLWES / KEYSWITCH chain touches the
// heap zero times. The switching key's Shoup companion tables (Precompute)
// halve the cost of the digit·key MULTPOLY accumulation, the dominant
// multiply count of stages 5–9.

import "cham/internal/ring"

// Precompute fills the switching key's Shoup companion tables. Every key
// that reaches a switch is precomputed — SwitchingKeyGen and the codec's
// decoder both end with this call — and KeySwitchAccumulateNTT panics on
// one that is not. Safe to call more than once; not safe concurrently
// with use of the key.
func (k *SwitchingKey) Precompute(r *ring.Ring) {
	if k.BsShoup != nil {
		return
	}
	bs := make([][][]uint64, len(k.Bs))
	as := make([][][]uint64, len(k.As))
	for j := range k.Bs {
		bs[j] = r.ShoupPrecompPoly(k.Bs[j])
		as[j] = r.ShoupPrecompPoly(k.As[j])
	}
	k.BsShoup, k.AsShoup = bs, as
}

// CopyFrom copies o into ct. Level counts must match.
func (ct *Ciphertext) CopyFrom(o *Ciphertext) {
	ct.B.CopyFrom(o.B)
	ct.A.CopyFrom(o.A)
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

// AutomorphCtInto is AutomorphCt writing into a caller-owned ciphertext:
// out = KeySwitch(φ_k(ct)). out may alias ct.
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
// a zeroed full-basis pair, leave the NTT domain (the c0/c1 rows of each
// limb share one twiddle sweep) and divide the special limbs back out.
// out's polynomials may be b and a themselves; all temporaries are pooled.
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
	for l := 0; l < lv; l++ {
		r.Tables[l].InverseBatch(c0.Coeffs[l], c1.Coeffs[l])
	}
	c0.IsNTT, c1.IsNTT = false, false
	r.ModDownTo(out.A, c1)
	kb := r.GetPoly(p.NormalLevels)
	r.ModDownTo(kb, c0)
	r.Add(out.B, kb, b)
	r.PutPoly(kb)
	r.PutPoly(c0)
	r.PutPoly(c1)
}

// RescaleInto is Rescale writing into a caller-owned normal-basis
// ciphertext.
func (p Params) RescaleInto(out, ct *Ciphertext) {
	if ct.Levels() != p.R.Levels() {
		panic("rlwe: Rescale requires an augmented ciphertext")
	}
	if out.Levels() != p.NormalLevels {
		panic("rlwe: Rescale output must be normal basis")
	}
	p.R.ModDownTo(out.B, ct.B)
	p.R.ModDownTo(out.A, ct.A)
}
