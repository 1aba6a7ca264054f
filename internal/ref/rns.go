package ref

import (
	"math/big"

	"cham/internal/ring"
)

// RNS basis conversion between the optimized ring.Poly representation and
// the reference big-integer form, plus the exact rounding division that
// models RESCALE / ModDown. The CRT reconstruction here is written
// independently of ring.ToBigIntCentered so the two act as cross-checks.

// ModulusProduct returns Π q_l for the given limbs.
func ModulusProduct(moduli []uint64) *big.Int {
	q := big.NewInt(1)
	for _, m := range moduli {
		q.Mul(q, new(big.Int).SetUint64(m))
	}
	return q
}

// Compose reconstructs the reference polynomial from an RNS polynomial over
// the given limb moduli (which must match p's level count): coefficient i
// is the unique X in [0, Πq_l) with X ≡ p.Coeffs[l][i] (mod q_l).
// The input must be in coefficient domain.
func Compose(p *ring.Poly, moduli []uint64) *Poly {
	if p.IsNTT {
		panic("ref: Compose requires coefficient domain")
	}
	if len(moduli) != p.Levels() {
		panic("ref: modulus count does not match poly levels")
	}
	q := ModulusProduct(moduli)
	n := len(p.Coeffs[0])
	out := NewPoly(n, q)
	// CRT weights w_l = (Q/q_l)·[(Q/q_l)^{-1} mod q_l].
	weights := make([]*big.Int, len(moduli))
	for l, ql := range moduli {
		qlBig := new(big.Int).SetUint64(ql)
		qOver := new(big.Int).Quo(q, qlBig)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qOver, qlBig), qlBig)
		weights[l] = qOver.Mul(qOver, inv)
	}
	term := new(big.Int)
	for i := 0; i < n; i++ {
		acc := out.Coeffs[i]
		for l := range moduli {
			term.SetUint64(p.Coeffs[l][i])
			term.Mul(term, weights[l])
			acc.Add(acc, term)
		}
		acc.Mod(acc, q)
	}
	return out
}

// Decompose maps the reference polynomial back to RNS residue rows over the
// given limb moduli: row l holds coefficient values mod q_l.
func Decompose(p *Poly, moduli []uint64) [][]uint64 {
	out := make([][]uint64, len(moduli))
	tmp := new(big.Int)
	for l, ql := range moduli {
		qlBig := new(big.Int).SetUint64(ql)
		row := make([]uint64, len(p.Coeffs))
		for i, c := range p.Coeffs {
			row[i] = tmp.Mod(c, qlBig).Uint64()
		}
		out[l] = row
	}
	return out
}

// MatchesRNS reports whether p decomposes exactly to the RNS polynomial o
// (coefficient domain) over the given moduli.
func (p *Poly) MatchesRNS(o *ring.Poly, moduli []uint64) bool {
	if o.IsNTT || len(moduli) != o.Levels() {
		return false
	}
	rows := Decompose(p, moduli)
	for l := range rows {
		for i := range rows[l] {
			if rows[l][i] != o.Coeffs[l][i] {
				return false
			}
		}
	}
	return true
}

// centeredScalar returns the centred representative of x mod q, using the
// same convention as the optimized pipeline: residues strictly above q/2
// (integer division, q odd) lift negatively, so the range is
// [-(q-1)/2, (q-1)/2].
func centeredScalar(x *big.Int, q uint64) *big.Int {
	r := new(big.Int).Mod(x, new(big.Int).SetUint64(q))
	if r.Uint64() > q/2 {
		r.Sub(r, new(big.Int).SetUint64(q))
	}
	return r
}

// ModDownValue performs the exact RESCALE division on a single value:
// given x modulo Q·qLast it returns (x - c)/qLast modulo Q, where c is the
// centred residue of x modulo qLast. (x - c) is divisible by qLast by
// construction, so the division is exact integer arithmetic — this is the
// rounding division the RNS formula in ring.ModDownInto realises limb-wise.
func ModDownValue(x *big.Int, qLast uint64, newQ *big.Int) *big.Int {
	c := centeredScalar(x, qLast)
	d := new(big.Int).Sub(x, c)
	d.Quo(d, new(big.Int).SetUint64(qLast))
	return d.Mod(d, newQ)
}

// ModDown applies ModDownValue to every coefficient, dropping the last
// limb of the basis: moduli lists the CURRENT basis of p (so p.Q must equal
// their product) and the result lives modulo the product of moduli[:len-1].
func ModDown(p *Poly, moduli []uint64) *Poly {
	if ModulusProduct(moduli).Cmp(p.Q) != 0 {
		panic("ref: basis does not match poly modulus")
	}
	qLast := moduli[len(moduli)-1]
	newQ := ModulusProduct(moduli[:len(moduli)-1])
	out := NewPoly(len(p.Coeffs), newQ)
	for i, c := range p.Coeffs {
		out.Coeffs[i].Set(ModDownValue(c, qLast, newQ))
	}
	return out
}

// ModDownTo repeatedly drops the last limb until `levels` limbs remain.
func ModDownTo(p *Poly, moduli []uint64, levels int) *Poly {
	out := p
	for lv := len(moduli); lv > levels; lv-- {
		out = ModDown(out, moduli[:lv])
	}
	return out
}

// ComposeCiphertext composes both halves of an RLWE ciphertext
// (coefficient domain) over the moduli matching its level count.
func ComposeCiphertext(b, a *ring.Poly, moduli []uint64) *Ciphertext {
	return &Ciphertext{B: Compose(b, moduli), A: Compose(a, moduli)}
}
