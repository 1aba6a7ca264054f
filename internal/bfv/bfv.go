// Package bfv implements the Brakerski/Fan-Vercauteren scheme on top of the
// rlwe layer, with the two plaintext encodings the CHAM paper contrasts:
//
//   - coefficient encoding (§II-C, Eq. 1): cleartexts sit directly in
//     polynomial coefficients, making a homomorphic dot product a single
//     polynomial multiplication — the encoding CHAM accelerates; and
//   - batch (SIMD) encoding (§II-E): cleartexts sit in NTT slots modulo t,
//     the encoding used by rotate-and-sum baselines such as GAZELLE.
//
// The default plaintext modulus is t = 65537: prime (so slot encoding
// exists) and odd (so the 2^ℓ factor PackLWEs introduces is invertible).
package bfv

import (
	"fmt"
	"math/big"
	"math/rand"

	"cham/internal/mod"
	"cham/internal/ntt"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

// DefaultT is the default plaintext modulus.
const DefaultT = 65537

// Params bundles the RLWE layer with the plaintext modulus.
type Params struct {
	rlwe.Params
	T mod.Modulus
	// slotTable is non-nil when t supports SIMD batching (t ≡ 1 mod 2N).
	slotTable *ntt.Table
	// levels[k-1] holds the Δ-scaling and decryption-rounding constants of
	// k-limb ciphertexts (scale.go).
	levels []levelConsts
}

// NewParams builds BFV parameters over the given ring. t must be odd and
// smaller than every ciphertext limb, and the full basis narrow enough for
// the two-word decryption rounding ((k+1)·Q ≤ 2^128 over its k limbs).
func NewParams(r *ring.Ring, normalLevels, eta int, t uint64) (Params, error) {
	base, err := rlwe.NewParams(r, normalLevels, eta)
	if err != nil {
		return Params{}, err
	}
	tm, err := mod.TryNew(t)
	if err != nil {
		return Params{}, fmt.Errorf("bfv: bad plaintext modulus: %w", err)
	}
	for _, m := range r.Moduli {
		if t >= m.Q {
			return Params{}, fmt.Errorf("bfv: t=%d not below limb %d", t, m.Q)
		}
	}
	p := Params{Params: base, T: tm, levels: make([]levelConsts, r.Levels())}
	for k := range p.levels {
		if p.levels[k], err = newLevelConsts(r, tm, k+1); err != nil {
			return Params{}, err
		}
	}
	if (t-1)%uint64(2*r.N) == 0 && mod.IsPrime(t) {
		st, err := ntt.NewTable(r.N, t)
		if err != nil {
			return Params{}, err
		}
		p.slotTable = st
	}
	return p, nil
}

// NewChamParams returns the paper's production parameter set at degree n
// (n = 4096 for the real system; smaller n keeps unit tests fast):
// basis {q0, q1, p}, CBD noise eta=21 (σ≈3.2), t=65537.
func NewChamParams(n int) (Params, error) {
	r, err := ring.New(n, mod.ChamModuli())
	if err != nil {
		return Params{}, err
	}
	return NewParams(r, 2, 21, DefaultT)
}

// MustChamParams panics on error.
func MustChamParams(n int) Params {
	p, err := NewChamParams(n)
	if err != nil {
		panic(err)
	}
	return p
}

// CanBatch reports whether SIMD slot encoding is available.
func (p Params) CanBatch() bool { return p.slotTable != nil }

// Delta returns ⌊Q_levels/t⌋, the plaintext scale at the given level count.
func (p Params) Delta(levels int) *big.Int {
	d := p.R.Modulus(levels)
	return d.Quo(d, new(big.Int).SetUint64(p.T.Q))
}

// Plaintext is an unscaled plaintext polynomial with coefficients modulo t.
// Scaling by Δ happens at encryption; plaintext multipliers are used as-is.
type Plaintext struct {
	Coeffs []uint64 // length N, values in [0, t)
}

// NewPlaintext returns an all-zero plaintext.
func (p Params) NewPlaintext() *Plaintext {
	return &Plaintext{Coeffs: make([]uint64, p.R.N)}
}

// Lift expands the plaintext into an RNS polynomial with the given level
// count, mapping each coefficient through its centred representative so
// that values near t wrap to small negatives.
func (p Params) Lift(pt *Plaintext, levels int) *ring.Poly {
	out := p.R.NewPoly(levels)
	if len(pt.Coeffs) == p.R.N {
		p.LiftInto(out, pt)
		return out
	}
	vals := make([]int64, len(pt.Coeffs))
	for i, c := range pt.Coeffs {
		vals[i] = p.T.CenterLift(c)
	}
	p.R.SetCentered(out, vals)
	return out
}

// Encrypt encrypts pt under sk at the given level count: ct = Enc(0) + Δ·pt.
func (p Params) Encrypt(rng *rand.Rand, sk *rlwe.SecretKey, pt *Plaintext, levels int) *rlwe.Ciphertext {
	ct := p.EncryptZeroSym(rng, sk, levels)
	p.addScaled(ct.B, pt)
	return ct
}

// EncryptPK is Encrypt using a public key.
func (p Params) EncryptPK(rng *rand.Rand, pk *rlwe.PublicKey, pt *Plaintext, levels int) *rlwe.Ciphertext {
	ct := p.EncryptZeroPK(rng, pk, levels)
	p.addScaled(ct.B, pt)
	return ct
}

// Decrypt recovers the plaintext: m = ⌊t·phase/Q⌉ mod t per coefficient.
// The phase lives in pooled scratch; only the plaintext is allocated.
func (p Params) Decrypt(ct *rlwe.Ciphertext, sk *rlwe.SecretKey) *Plaintext {
	phase := p.R.GetPoly(ct.Levels())
	p.PhaseInto(phase, ct, sk)
	out := p.NewPlaintext()
	p.roundInto(out.Coeffs, phase)
	p.R.PutPoly(phase)
	return out
}

// AddPlain homomorphically adds the plaintext to the ciphertext in place:
// ct.B += Δ·pt.
func (p Params) AddPlain(ct *rlwe.Ciphertext, pt *Plaintext) {
	if !ct.B.IsNTT {
		p.addScaled(ct.B, pt)
		return
	}
	scaled := p.R.GetPoly(ct.Levels())
	scaled.Zero()
	p.addScaled(scaled, pt)
	p.R.NTT(scaled)
	p.R.Add(ct.B, ct.B, scaled)
	p.R.PutPoly(scaled)
}

// MulScalar homomorphically multiplies the ciphertext by a small cleartext
// scalar c (reduced mod t at decryption); noise scales by c, so keep c
// well below the remaining budget.
func (p Params) MulScalar(out, ct *rlwe.Ciphertext, c uint64) {
	p.R.MulScalar(out.B, ct.B, c)
	p.R.MulScalar(out.A, ct.A, c)
}

// MulPlain homomorphically multiplies ct (coefficient domain) by the
// plaintext multiplier pt (Eq. 2's pt×ct product): stages 1–3 of the
// DOTPRODUCT pipeline. The result is returned in coefficient domain at the
// ciphertext's level count.
func (p Params) MulPlain(ct *rlwe.Ciphertext, pt *Plaintext) *rlwe.Ciphertext {
	levels := ct.Levels()
	ptPoly := p.Lift(pt, levels)
	p.R.NTT(ptPoly)
	b := ct.B.Copy()
	a := ct.A.Copy()
	p.R.NTT(b)
	p.R.NTT(a)
	out := &rlwe.Ciphertext{B: p.R.NewPoly(levels), A: p.R.NewPoly(levels)}
	p.MulPlainNTT(out, &rlwe.Ciphertext{B: b, A: a}, ptPoly)
	p.R.INTT(out.B)
	p.R.INTT(out.A)
	return out
}

// MulPlainRescale is the full augmented flow: multiply an augmented
// ciphertext by a plaintext, then RESCALE by the special modulus back to
// the normal basis (stages 1–4). The ciphertext must carry the full basis.
func (p Params) MulPlainRescale(ct *rlwe.Ciphertext, pt *Plaintext) *rlwe.Ciphertext {
	if ct.Levels() != p.R.Levels() {
		panic("bfv: MulPlainRescale requires an augmented ciphertext")
	}
	return p.Rescale(p.MulPlain(ct, pt))
}
