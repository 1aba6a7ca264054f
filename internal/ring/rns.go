package ring

import "math/big"

// CHAM keeps ciphertexts in the basis {q0, q1} and temporarily extends to
// {q0, q1, p} ("augmented" form, §II-F) for multiplication and key
// switching; RESCALE (pipeline stage 4, ModDownInto/ModDownTo in
// hotpath.go) divides by the special modulus p and returns to the normal
// basis. Entering the augmented basis never needs a basis extension: the
// digit lifts of a key switch are CentredLiftRow sweeps.

// ToBigIntCentered reconstructs the polynomial over the integers via CRT on
// the first `levels` limbs, returning centred representatives in
// (-Q/2, Q/2].
func (r *Ring) ToBigIntCentered(p *Poly, levels int) []*big.Int {
	if levels > p.Levels() {
		panic("ring: not enough limbs")
	}
	q := r.Modulus(levels)
	half := new(big.Int).Rsh(q, 1)

	// Precompute CRT weights w_l = (Q/q_l)·[(Q/q_l)^-1 mod q_l].
	weights := make([]*big.Int, levels)
	for l := 0; l < levels; l++ {
		ql := new(big.Int).SetUint64(r.Moduli[l].Q)
		qOver := new(big.Int).Quo(q, ql)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qOver, ql), ql)
		weights[l] = qOver.Mul(qOver, inv)
	}
	out := make([]*big.Int, r.N)
	acc := new(big.Int)
	term := new(big.Int)
	for i := 0; i < r.N; i++ {
		acc.SetInt64(0)
		for l := 0; l < levels; l++ {
			term.SetUint64(p.Coeffs[l][i])
			term.Mul(term, weights[l])
			acc.Add(acc, term)
		}
		acc.Mod(acc, q)
		v := new(big.Int).Set(acc)
		if v.Cmp(half) > 0 {
			v.Sub(v, q)
		}
		out[i] = v
	}
	return out
}
