// Package ring implements the polynomial ring Z_Q[X]/(X^N+1) in RNS
// (residue number system) form, the data structure CHAM's polynomial
// processing units (PPUs) operate on. A polynomial is held as one residue
// row per RNS limb; CHAM's basis is {q0, q1} for normal ciphertexts and
// {q0, q1, p} for augmented ones (§II-F).
//
// The package provides the Table-I PPU operations (MODADD, MODMUL, REV,
// SHIFTNEG, AUTOMORPH), monomial multiplication, NTT-domain conversion,
// noise sampling, and the ModDown rounding division that special-modulus
// key switching and rescaling end with.
package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"

	"cham/internal/mod"
	"cham/internal/ntt"
)

// Ring bundles the transform tables for a fixed degree N and RNS basis.
// The special modulus, if any, is by convention the LAST limb; a Poly with
// fewer levels than the full basis uses the basis prefix.
type Ring struct {
	N      int
	Moduli []mod.Modulus
	Tables []*ntt.Table

	// polyPools[lv-1] recycles *Poly buffers with lv limbs (GetPoly/PutPoly);
	// scratch recycles single N-word rows for the permutation ops.
	polyPools []sync.Pool
	scratch   sync.Pool

	// modDownInv[sp][l] = q_sp^-1 mod q_l (with its Shoup companion), the
	// RESCALE constants for dropping limb sp into limb l — cached here so
	// ModDown never recomputes a Fermat inversion per call.
	modDownInv, modDownInvShoup [][]uint64

	// autoPerm caches the NTT-slot gather table of the automorphism X→X^k
	// per index k, and monoNTT the per-limb NTT image of X^e (with Shoup
	// companions) per exponent e; see autontt.go. Both are built lazily
	// under their mutexes and read lock-shared on the hot path.
	autoMu   sync.RWMutex
	autoPerm map[int][]uint32
	monoMu   sync.RWMutex
	monoNTT  map[int]*monoTable
}

// New constructs a Ring of degree n over the given prime moduli. Every
// modulus must satisfy q ≡ 1 (mod 2n) and be distinct.
func New(n int, moduli []uint64) (*Ring, error) {
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: empty modulus chain")
	}
	r := &Ring{
		N:        n,
		autoPerm: map[int][]uint32{},
		monoNTT:  map[int]*monoTable{},
	}
	seen := map[uint64]bool{}
	for _, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		t, err := ntt.NewTable(n, q)
		if err != nil {
			return nil, err
		}
		r.Moduli = append(r.Moduli, t.M)
		r.Tables = append(r.Tables, t)
	}
	r.polyPools = make([]sync.Pool, len(r.Moduli))
	r.modDownInv = make([][]uint64, len(r.Moduli))
	r.modDownInvShoup = make([][]uint64, len(r.Moduli))
	for sp := 1; sp < len(r.Moduli); sp++ {
		r.modDownInv[sp] = make([]uint64, sp)
		r.modDownInvShoup[sp] = make([]uint64, sp)
		for l := 0; l < sp; l++ {
			ml := r.Moduli[l]
			inv := ml.Inv(ml.Reduce(r.Moduli[sp].Q))
			r.modDownInv[sp][l] = inv
			r.modDownInvShoup[sp][l] = ml.ShoupPrecomp(inv)
		}
	}
	return r, nil
}

// MustNew is New for known-good parameters; it panics on error.
func MustNew(n int, moduli []uint64) *Ring {
	r, err := New(n, moduli)
	if err != nil {
		panic(err)
	}
	return r
}

// Levels returns the number of limbs in the full basis.
func (r *Ring) Levels() int { return len(r.Moduli) }

// Modulus returns the product of the first `levels` limbs as a big integer.
func (r *Ring) Modulus(levels int) *big.Int {
	q := big.NewInt(1)
	for _, m := range r.Moduli[:levels] {
		q.Mul(q, new(big.Int).SetUint64(m.Q))
	}
	return q
}

// Poly is an RNS polynomial: Coeffs[l][i] is coefficient i modulo limb l.
// IsNTT records whether the rows are in NTT (evaluation) domain.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool
}

// NewPoly allocates a zero polynomial with the given number of limbs.
func (r *Ring) NewPoly(levels int) *Poly {
	if levels < 1 || levels > len(r.Moduli) {
		panic(fmt.Sprintf("ring: levels %d out of range [1,%d]", levels, len(r.Moduli)))
	}
	c := make([][]uint64, levels)
	backing := make([]uint64, levels*r.N)
	for l := range c {
		c[l], backing = backing[:r.N], backing[r.N:]
	}
	return &Poly{Coeffs: c}
}

// Levels returns the number of RNS limbs p carries.
func (p *Poly) Levels() int { return len(p.Coeffs) }

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	q := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	backing := make([]uint64, len(p.Coeffs)*len(p.Coeffs[0]))
	for l := range p.Coeffs {
		q.Coeffs[l], backing = backing[:len(p.Coeffs[l])], backing[len(p.Coeffs[l]):]
		copy(q.Coeffs[l], p.Coeffs[l])
	}
	return q
}

// Equal reports whether p and o hold identical limbs and domain flags.
func (p *Poly) Equal(o *Poly) bool {
	if p.IsNTT != o.IsNTT || len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	for l := range p.Coeffs {
		for i := range p.Coeffs[l] {
			if p.Coeffs[l][i] != o.Coeffs[l][i] {
				return false
			}
		}
	}
	return true
}

// Zero clears all coefficients in place, keeping the domain flag.
func (p *Poly) Zero() {
	for l := range p.Coeffs {
		for i := range p.Coeffs[l] {
			p.Coeffs[l][i] = 0
		}
	}
}

// minLevels panics unless all polys share the level count of the first.
func sameLevels(ps ...*Poly) int {
	lv := ps[0].Levels()
	for _, p := range ps[1:] {
		if p.Levels() != lv {
			panic("ring: level mismatch")
		}
	}
	return lv
}

func sameDomain(ps ...*Poly) {
	d := ps[0].IsNTT
	for _, p := range ps[1:] {
		if p.IsNTT != d {
			panic("ring: NTT-domain mismatch")
		}
	}
}

// Add sets out = a + b (MODADD). All operands must share levels and domain.
func (r *Ring) Add(out, a, b *Poly) {
	lv := sameLevels(out, a, b)
	sameDomain(a, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, rb, ro := a.Coeffs[l], b.Coeffs[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.Add(ra[i], rb[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b.
func (r *Ring) Sub(out, a, b *Poly) {
	lv := sameLevels(out, a, b)
	sameDomain(a, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, rb, ro := a.Coeffs[l], b.Coeffs[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.Sub(ra[i], rb[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a.
func (r *Ring) Neg(out, a *Poly) {
	lv := sameLevels(out, a)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, ro := a.Coeffs[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.Neg(ra[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// MulCoeff sets out = a ∘ b, the coefficient-wise product (MODMUL). In NTT
// domain this realises the ring product; in coefficient domain it is the
// plain Hadamard product the PPUs use for masking.
func (r *Ring) MulCoeff(out, a, b *Poly) {
	lv := sameLevels(out, a, b)
	sameDomain(a, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, rb, ro := a.Coeffs[l], b.Coeffs[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.MulBarrett(ra[i], rb[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// MulScalar sets out = a · c for a small scalar c (applied per limb).
func (r *Ring) MulScalar(out, a *Poly, c uint64) {
	lv := sameLevels(out, a)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		cc := m.Reduce(c)
		cp := m.ShoupPrecomp(cc)
		ra, ro := a.Coeffs[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.MulShoup(ra[i], cc, cp)
		}
	}
	out.IsNTT = a.IsNTT
}

// MulScalarBig sets out = a · c where c is a (possibly huge) integer,
// reduced limb-wise. Used for the Δ = ⌊Q/t⌋ plaintext scaling.
func (r *Ring) MulScalarBig(out, a *Poly, c *big.Int) {
	lv := sameLevels(out, a)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		cc := new(big.Int).Mod(c, new(big.Int).SetUint64(m.Q)).Uint64()
		cp := m.ShoupPrecomp(cc)
		ra, ro := a.Coeffs[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.MulShoup(ra[i], cc, cp)
		}
	}
	out.IsNTT = a.IsNTT
}

// NTT transforms p to the evaluation domain in place (canonical residues
// in and out). Panics if already there.
func (r *Ring) NTT(p *Poly) {
	if p.IsNTT {
		panic("ring: NTT of an NTT-domain polynomial")
	}
	for l := range p.Coeffs {
		r.Tables[l].ForwardLazy(p.Coeffs[l])
	}
	p.IsNTT = true
}

// INTT transforms p back to the coefficient domain in place (canonical
// residues in and out).
func (r *Ring) INTT(p *Poly) {
	if !p.IsNTT {
		panic("ring: INTT of a coefficient-domain polynomial")
	}
	for l := range p.Coeffs {
		r.Tables[l].InverseLazy(p.Coeffs[l])
	}
	p.IsNTT = false
}

// MulPoly sets out = a · b in the ring (negacyclic convolution), accepting
// coefficient-domain inputs and producing a coefficient-domain output. It
// is a convenience wrapper over NTT ∘ MODMUL ∘ INTT — the DOTPRODUCT
// pipeline stages 1–3.
func (r *Ring) MulPoly(out, a, b *Poly) {
	ac, bc := a.Copy(), b.Copy()
	r.NTT(ac)
	r.NTT(bc)
	r.MulCoeff(out, ac, bc)
	r.INTT(out)
}

// The samplers draw from the generator exactly the words, in exactly the
// order, that the rand.Rand convenience methods they were first written on
// did, so a seed keeps producing the same keys and ciphertexts: UniformPoly
// one Uint64 per residue, limb-major; TernaryPoly one Intn(3) (a rejection
// loop over Int31) per coefficient; CBDPoly 2·eta Int63 words per
// coefficient, of each only bit 32 — the low bit of the Int31 a draw of
// one bit through Intn reduces to, for every rand.Source.

// UniformPoly fills p with independent uniform residues.
func (r *Ring) UniformPoly(rng *rand.Rand, p *Poly) {
	for l := range p.Coeffs {
		m := r.Moduli[l]
		for i := range p.Coeffs[l] {
			p.Coeffs[l][i] = m.ReduceBarrett(rng.Uint64())
		}
	}
	p.IsNTT = false
}

// setSmall writes the centred value v, |v| < every limb modulus, into
// coefficient i of every limb: v, plus q_l where v is negative.
func (r *Ring) setSmall(p *Poly, i int, v int64) {
	neg := uint64(v >> 63) // all ones iff v < 0
	for l := range p.Coeffs {
		p.Coeffs[l][i] = uint64(v) + neg&r.Moduli[l].Q
	}
}

// TernaryPoly samples a uniform ternary polynomial (coefficients in
// {-1,0,1}), the secret-key distribution, identical across limbs.
func (r *Ring) TernaryPoly(rng *rand.Rand, p *Poly) {
	for i := 0; i < r.N; i++ {
		r.setSmall(p, i, int64(rng.Intn(3))-1)
	}
	p.IsNTT = false
}

// CBDPoly samples centred-binomial noise with parameter eta (variance
// eta/2), the discrete-Gaussian stand-in used for encryption noise. eta=21
// gives a standard deviation ≈ 3.24, matching the usual σ = 3.2. eta must
// be below every limb modulus (rlwe.NewParams checks it).
func (r *Ring) CBDPoly(rng *rand.Rand, p *Poly, eta int) {
	for l := range p.Coeffs {
		if uint64(eta) >= r.Moduli[l].Q {
			panic("ring: CBD parameter not below the modulus")
		}
	}
	for i := 0; i < r.N; i++ {
		v := int64(0)
		for b := 0; b < eta; b++ {
			v += rng.Int63() >> 32 & 1
			v -= rng.Int63() >> 32 & 1
		}
		r.setSmall(p, i, v)
	}
	p.IsNTT = false
}

// SetCentered writes the same centred integer sequence into every limb.
// vals must have length ≤ N; remaining coefficients are zeroed.
func (r *Ring) SetCentered(p *Poly, vals []int64) {
	if len(vals) > r.N {
		panic("ring: too many coefficients")
	}
	for l := range p.Coeffs {
		m := r.Moduli[l]
		for i := range p.Coeffs[l] {
			if i < len(vals) {
				p.Coeffs[l][i] = m.FromCentered(vals[i])
			} else {
				p.Coeffs[l][i] = 0
			}
		}
	}
	p.IsNTT = false
}
