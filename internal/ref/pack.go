package ref

import "fmt"

// Reference EXTRACTLWES (Eq. 3) and the PACKTWOLWES / PACKLWES tree
// (Alg. 2 / Alg. 3), mirroring the optimized lwe package operation for
// operation in exact big-integer arithmetic — including the NTT-resident
// tree's DEFERRED divisions (DESIGN.md §12): a tree node carries (BT, A)
// with BOTH parts modulo the full basis and true ciphertext
// (ModDownTo(BT), ModDownTo(A)); merges accumulate their key-switch
// contributions un-rescaled, only the gathered difference a-part feeding
// the digit decomposition is rescaled per merge, and the rounding
// divisions run once per tree, at the flush.

// ExtractAsRLWE extracts plaintext coefficient idx of ct as a slot
// ciphertext in RLWE shape (lwe's Extract∘AsRLWE, fused): the A-part is
// ct.A·X^{-idx} and the B-part keeps only b_idx at its constant
// coefficient.
func ExtractAsRLWE(ct *Ciphertext, idx int) *Ciphertext {
	var a *Poly
	if idx == 0 {
		a = ct.A.Copy()
	} else {
		a = ct.A.MulMonomial(-idx)
	}
	b := NewPoly(ct.B.N(), ct.B.Q)
	b.Coeffs[0].Set(ct.B.Coeffs[idx])
	return &Ciphertext{B: b, A: a}
}

// PackedNode is the reference mirror of lwe.PackNode: both parts modulo
// the FULL basis with the division by the special modulus product
// deferred — the ciphertext it stands for is (ModDownTo(BT), ModDownTo(A)).
type PackedNode struct {
	BT *Poly
	A  *Poly
}

// DeferRLWE lifts a normal-basis ciphertext into deferred form:
// BT = P·b and A = P·a modulo the full basis — exact multiples of the
// special product P, so ModDownTo recovers b and a with zero rounding
// error (the mirror of lwe.ResidentFromRLWE).
func DeferRLWE(ct *Ciphertext, moduli []uint64, normalLevels int) *PackedNode {
	fullQ := ModulusProduct(moduli)
	pProd := ModulusProduct(moduli[normalLevels:])
	lift := func(p *Poly) *Poly {
		out := NewPoly(p.N(), fullQ)
		for i, c := range p.Coeffs {
			out.Coeffs[i].Mul(c, pProd)
			out.Coeffs[i].Mod(out.Coeffs[i], fullQ)
		}
		return out
	}
	return &PackedNode{BT: lift(ct.B), A: lift(ct.A)}
}

// FlushDeferred applies the tree's deferred divisions (one per part),
// leaving a normal-basis ciphertext (the mirror of lwe.FlushInto).
func FlushDeferred(nd *PackedNode, moduli []uint64, normalLevels int) *Ciphertext {
	return &Ciphertext{
		B: ModDownTo(nd.BT, moduli, normalLevels),
		A: ModDownTo(nd.A, moduli, normalLevels),
	}
}

// PackTwoDeferred merges two deferred groups of size i (Alg. 2, deferred
// schedule): the sum/difference/automorphism arithmetic runs on both
// full-basis parts, the switch reads the TRUE a-part of the gathered
// difference (its one per-merge rescale), and both key-switch
// contributions join the accumulators un-rescaled — exactly the per-merge
// work of lwe's packTwo.
func PackTwoDeferred(i int, E, O *PackedNode, swk *SwitchingKey, moduli []uint64, normalLevels int) *PackedNode {
	n := E.A.N()
	z := n / (2 * i)
	k := 2*i + 1
	sBT := O.BT.MulMonomial(z)
	sA := O.A.MulMonomial(z)
	phiBT := E.BT.Sub(sBT).Automorph(k)
	aTrue := ModDownTo(E.A.Sub(sA).Automorph(k), moduli, normalLevels)
	c0, c1 := KeySwitchDeferred(aTrue, swk, moduli, normalLevels)
	return &PackedNode{
		BT: E.BT.Add(sBT).Add(phiBT).Add(c0),
		A:  E.A.Add(sA).Add(c1),
	}
}

// PackDeferred folds m = len(nodes) deferred nodes into one (Alg. 3,
// deferred schedule), level by level: level with group size i merges pair
// (j, j+count/2). It is the oracle for lwe's post-order fold, which runs
// exactly these merges — same E, O, key and group size — depth-first.
// The b-part rounding order matters here — one division per tree, not per
// merge — so matching the merges one for one keeps the correspondence
// bit-exact, not just plaintext-exact. keys maps the automorphism index
// 2i+1 to its reference switching key.
func PackDeferred(nodes []*PackedNode, keys map[int]*SwitchingKey, moduli []uint64, normalLevels int) (*PackedNode, error) {
	m := len(nodes)
	if m < 1 || m&(m-1) != 0 {
		return nil, fmt.Errorf("ref: cannot pack %d ciphertexts (need a power of two)", m)
	}
	buf := make([]*PackedNode, m)
	copy(buf, nodes)
	count := m
	for i := 1; i < m; i <<= 1 {
		half := count / 2
		swk := keys[2*i+1]
		if swk == nil {
			return nil, fmt.Errorf("ref: missing packing key for k=%d", 2*i+1)
		}
		for j := 0; j < half; j++ {
			buf[j] = PackTwoDeferred(i, buf[j], buf[j+half], swk, moduli, normalLevels)
		}
		count = half
	}
	return buf[0], nil
}

// PackCiphertexts folds m = len(cts) slot ciphertexts into one (Alg. 3):
// each leaf enters the deferred tree as an exact P·(b, a) lift and the
// flush divisions run at the root.
func PackCiphertexts(cts []*Ciphertext, keys map[int]*SwitchingKey, moduli []uint64, normalLevels int) (*Ciphertext, error) {
	nodes := make([]*PackedNode, len(cts))
	for j, ct := range cts {
		nodes[j] = DeferRLWE(ct, moduli, normalLevels)
	}
	root, err := PackDeferred(nodes, keys, moduli, normalLevels)
	if err != nil {
		return nil, err
	}
	return FlushDeferred(root, moduli, normalLevels), nil
}
