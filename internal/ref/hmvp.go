package ref

import (
	"fmt"
	"math/big"

	"cham/internal/bfv"
	"cham/internal/lwe"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

// End-to-end reference HMVP (Alg. 1): the same tiling, encoding, per-row
// dot product, scalar-extracted RESCALE, and packing tree as the optimized
// core.Evaluator, evaluated entirely in big-integer arithmetic. The output
// must match core.MatVec / PreparedMatrix.Apply bit for bit after
// decomposition back to RNS.

// Trace records every stage boundary of one reference HMVP, so tests can
// decrypt intermediate results and check noise invariants per stage.
type Trace struct {
	// VectorNTTInput is the composed form of each input vector chunk
	// (stage 0: the fresh augmented ciphertexts).
	Vector []*Ciphertext
	// Slots[tile][row] is the extracted slot ciphertext after stages 1–4
	// (dot product, rescale, extraction), normal basis.
	Slots [][]*Ciphertext
	// Packed[tile] is the final packed ciphertext after stages 5–9.
	Packed []*Ciphertext
}

// Keys converts the optimized packing keys into reference form once.
func Keys(p bfv.Params, keys *lwe.PackingKeys) map[int]*SwitchingKey {
	full := fullModuli(p)
	out := make(map[int]*SwitchingKey, len(keys.Keys))
	for k, swk := range keys.Keys {
		out[k] = ComposeSwitchingKey(p.R, swk, full)
	}
	return out
}

func fullModuli(p bfv.Params) []uint64 {
	out := make([]uint64, p.R.Levels())
	for l, m := range p.R.Moduli {
		out[l] = m.Q
	}
	return out
}

// ComposeSecret composes the secret key over the first `levels` limbs.
func ComposeSecret(p bfv.Params, sk *rlwe.SecretKey, levels int) *Poly {
	trunc := &ring.Poly{Coeffs: sk.Value.Coeffs[:levels], IsNTT: sk.Value.IsNTT}
	return Compose(trunc, fullModuli(p)[:levels])
}

// encodeRow builds the lifted dot-product multiplier of Eq. 1 for one row
// chunk directly over the full modulus: pt^(A_i) = s·A_{i,0} -
// s·Σ_{j≥1} A_{i,j}X^{N-j} with every coefficient reduced mod t, centred,
// and embedded modulo fullQ. scale s is the packing compensation 2^{-ℓ}.
func encodeRow(row []uint64, n int, t uint64, scale *big.Int, fullQ *big.Int) *Poly {
	out := NewPoly(n, fullQ)
	tB := new(big.Int).SetUint64(t)
	set := func(pos int, val uint64, negate bool) {
		c := new(big.Int).SetUint64(val)
		c.Mod(c, tB)
		if negate {
			c.Neg(c)
		}
		c.Mul(c, scale)
		c.Mod(c, tB)
		// Centred lift: residues above t/2 wrap to small negatives.
		if c.Uint64() > t/2 {
			c.Sub(c, tB)
		}
		out.Coeffs[pos].Mod(c, fullQ)
	}
	set(0, row[0], false)
	for j := 1; j < len(row); j++ {
		set(n-j, row[j], true)
	}
	return out
}

// HMVP computes the full reference matrix-vector product: A is the
// cleartext matrix (row-major), ctV the augmented-basis coefficient-domain
// vector ciphertexts from core.EncryptVector, and keys the packing keys in
// reference form (from Keys). It mirrors core.Evaluator's tiling exactly.
func HMVP(p bfv.Params, A [][]uint64, ctV []*rlwe.Ciphertext, keys map[int]*SwitchingKey) (*Trace, error) {
	n := p.R.N
	m := len(A)
	if m == 0 {
		return nil, fmt.Errorf("ref: empty matrix")
	}
	cols := len(A[0])
	chunks := (cols + n - 1) / n
	if chunks != len(ctV) {
		return nil, fmt.Errorf("ref: matrix has %d column chunks but vector has %d ciphertexts", chunks, len(ctV))
	}
	full := fullModuli(p)
	normal := full[:p.NormalLevels]
	fullQ := ModulusProduct(full)
	normalQ := ModulusProduct(normal)
	tB := new(big.Int).SetUint64(p.T.Q)

	tr := &Trace{}
	for c, ct := range ctV {
		if ct.Levels() != len(full) {
			return nil, fmt.Errorf("ref: vector ciphertext %d must carry the augmented basis", c)
		}
		if ct.IsNTT() {
			return nil, fmt.Errorf("ref: vector ciphertext %d must be in coefficient domain", c)
		}
		tr.Vector = append(tr.Vector, ComposeCiphertext(ct.B, ct.A, full))
	}

	for base := 0; base < m; base += n {
		rows := m - base
		if rows > n {
			rows = n
		}
		mPad := nextPow2(rows)
		// scale = 2^{-ℓ} mod t, ℓ = log2(mPad).
		l := 0
		for 1<<l < mPad {
			l++
		}
		scale := new(big.Int).ModInverse(
			new(big.Int).Exp(big.NewInt(2), big.NewInt(int64(l)), tB), tB)

		slots := make([]*Ciphertext, 0, mPad)
		nodes := make([]*PackedNode, 0, mPad)
		for i := 0; i < rows; i++ {
			row := A[base+i]
			accB := NewPoly(n, fullQ)
			accA := NewPoly(n, fullQ)
			for c := 0; c < chunks; c++ {
				lo, hi := c*n, (c+1)*n
				if hi > cols {
					hi = cols
				}
				pt := encodeRow(row[lo:hi], n, p.T.Q, scale, fullQ)
				accB = accB.Add(pt.Mul(tr.Vector[c].B))
				accA = accA.Add(pt.Mul(tr.Vector[c].A))
			}
			// Stage 4: the B-part survives only at its constant coefficient
			// (extraction at index 0). BOTH leaf divisions are DEFERRED:
			// the tree leaf keeps the un-rescaled full-basis constant β and
			// the raw full-basis a accumulator (exactly core's NTT-resident
			// leaf), while the trace's slot view holds the rescaled forms
			// for per-stage noise diagnostics.
			a := ModDownTo(accA, full, p.NormalLevels)
			bt := NewPoly(n, fullQ)
			bt.Coeffs[0].Set(accB.Coeffs[0])
			nodes = append(nodes, &PackedNode{BT: bt, A: accA})

			beta := new(big.Int).Set(accB.Coeffs[0])
			for lv := len(full); lv > p.NormalLevels; lv-- {
				beta = ModDownValue(beta, full[lv-1], ModulusProduct(full[:lv-1]))
			}
			b := NewPoly(n, normalQ)
			b.Coeffs[0].Set(beta)
			slots = append(slots, &Ciphertext{B: b, A: a})
		}
		for len(nodes) < mPad {
			nodes = append(nodes, &PackedNode{BT: NewPoly(n, fullQ), A: NewPoly(n, fullQ)})
		}
		tr.Slots = append(tr.Slots, slots[:rows])

		root, err := PackDeferred(nodes, keys, full, p.NormalLevels)
		if err != nil {
			return nil, err
		}
		tr.Packed = append(tr.Packed, FlushDeferred(root, full, p.NormalLevels))
	}
	return tr, nil
}

// MatchesResult reports whether the reference packed ciphertexts decompose
// exactly to the optimized result's RNS residues; on mismatch it returns a
// description of the first differing tile.
func (tr *Trace) MatchesResult(p bfv.Params, packed []*rlwe.Ciphertext) error {
	if len(packed) != len(tr.Packed) {
		return fmt.Errorf("ref: %d tiles, optimized produced %d", len(tr.Packed), len(packed))
	}
	normal := fullModuli(p)[:p.NormalLevels]
	for ti, want := range tr.Packed {
		got := packed[ti]
		if !want.B.MatchesRNS(got.B, normal) {
			return fmt.Errorf("ref: tile %d B-part differs from optimized pipeline", ti)
		}
		if !want.A.MatchesRNS(got.A, normal) {
			return fmt.Errorf("ref: tile %d A-part differs from optimized pipeline", ti)
		}
	}
	return nil
}

// DecryptResult reads the packed values back out of the reference trace:
// value i of tile ti sits at coefficient i·(N/mPad).
func (tr *Trace) DecryptResult(p bfv.Params, sk *rlwe.SecretKey) []uint64 {
	s := ComposeSecret(p, sk, p.NormalLevels)
	var out []uint64
	for ti, ct := range tr.Packed {
		rows := len(tr.Slots[ti])
		stride := p.R.N / nextPow2(rows)
		for i := 0; i < rows; i++ {
			out = append(out, DecryptCoeff(ct, s, p.T.Q, i*stride))
		}
	}
	return out
}

func nextPow2(x int) int {
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}
