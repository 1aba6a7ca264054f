package bfv

import "fmt"

// Coefficient encoding (CHAM §II-C, Eq. 1) and SIMD slot encoding (§II-E).

// EncodeVector encodes the cleartext vector v as pt^(v) = Σ v_j X^j.
// Values are reduced modulo t. len(v) must not exceed N.
func (p Params) EncodeVector(v []uint64) *Plaintext {
	if len(v) > p.R.N {
		panic("bfv: vector longer than N")
	}
	pt := p.NewPlaintext()
	for j, x := range v {
		pt.Coeffs[j] = p.T.Reduce(x)
	}
	return pt
}

// EncodeRow encodes matrix row a as the dot-product multiplier of Eq. 1:
//
//	pt^(A_i) = A_{i,0} - Σ_{j=1}^{N-1} A_{i,j} X^{N-j},
//
// so that the constant coefficient of pt^(A_i)·pt^(v) is the inner product
// A_i·v (Eq. 2). An optional scale factor (e.g. the inverse 2^ℓ packing
// compensation) is folded into every coefficient.
func (p Params) EncodeRow(a []uint64, scale uint64) *Plaintext {
	pt := p.NewPlaintext()
	p.EncodeRowInto(pt, a, scale)
	return pt
}

// InvPow2 returns 2^{-ℓ} mod t, the compensation factor for PackLWEs'
// doubling. Panics if t is even.
func (p Params) InvPow2(l int) uint64 {
	if p.T.Q&1 == 0 {
		panic("bfv: 2 is not invertible modulo an even t")
	}
	return p.T.Inv(p.T.Pow(2, uint64(l)))
}

// EncodeSlots places vals into SIMD slots: slot j holds the evaluation of
// the plaintext polynomial at ψ_t^(2·brv(j)+1). Requires CanBatch().
func (p Params) EncodeSlots(vals []uint64) (*Plaintext, error) {
	if p.slotTable == nil {
		return nil, fmt.Errorf("bfv: t=%d does not support batching at N=%d", p.T.Q, p.R.N)
	}
	if len(vals) > p.R.N {
		return nil, fmt.Errorf("bfv: %d values exceed %d slots", len(vals), p.R.N)
	}
	pt := p.NewPlaintext()
	for i, v := range vals {
		pt.Coeffs[i] = p.T.Reduce(v)
	}
	p.slotTable.InverseLazy(pt.Coeffs)
	return pt, nil
}

// DecodeSlots extracts all N slot values of the plaintext.
func (p Params) DecodeSlots(pt *Plaintext) ([]uint64, error) {
	if p.slotTable == nil {
		return nil, fmt.Errorf("bfv: t=%d does not support batching at N=%d", p.T.Q, p.R.N)
	}
	out := make([]uint64, p.R.N)
	copy(out, pt.Coeffs)
	p.slotTable.ForwardLazy(out)
	return out, nil
}
