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
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"cham/internal/mod"
	"cham/internal/ntt"
	"cham/internal/vec"
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

	// drops[sp][l] holds the RESCALE constants for dropping limb sp into
	// limb l — q_sp^-1 mod q_l, and the inverse transform's final stage
	// with it folded in — cached here so ModDown never recomputes a Fermat
	// inversion per call.
	drops [][]ntt.Drop

	// autoPerm caches the NTT-slot gather table of the automorphism X→X^k
	// per index k mod 2N, and monoNTT the per-limb NTT image of X^e, one
	// value per run of equal slots, per exponent e mod 2N; see autontt.go.
	// Each slot is built once on first use and published through its
	// atomic pointer, so the hot path reads it with one load and no lock.
	autoPerm []atomic.Pointer[[]uint32]
	monoNTT  []atomic.Pointer[monoTable]
}

// New constructs a Ring of degree n over the given prime moduli. Every
// modulus must satisfy q ≡ 1 (mod 2n) and be distinct.
func New(n int, moduli []uint64) (*Ring, error) {
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: empty modulus chain")
	}
	r := &Ring{N: n}
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
	r.drops = make([][]ntt.Drop, len(r.Moduli))
	for sp := 1; sp < len(r.Moduli); sp++ {
		r.drops[sp] = make([]ntt.Drop, sp)
		for l := 0; l < sp; l++ {
			r.drops[sp][l] = r.Tables[l].NewDrop(r.Moduli[sp].Q)
		}
	}
	r.autoPerm = make([]atomic.Pointer[[]uint32], 2*n)
	r.monoNTT = make([]atomic.Pointer[monoTable], 2*n)
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
		ro := out.Coeffs[l]
		r.MulScalarRow(l, ro, a.Coeffs[l][:len(ro)], r.NewScalar(l, c), false, 0)
	}
	out.IsNTT = a.IsNTT
}

// MulScalarBig sets out = a · c where c is a (possibly huge) integer,
// reduced limb-wise: keygen's image of the secret in Montgomery form and
// the switching keys' gadget terms.
func (r *Ring) MulScalarBig(out, a *Poly, c *big.Int) {
	lv := sameLevels(out, a)
	for l := 0; l < lv; l++ {
		cc := new(big.Int).Mod(c, new(big.Int).SetUint64(r.Moduli[l].Q)).Uint64()
		ro := out.Coeffs[l]
		r.MulScalarRow(l, ro, a.Coeffs[l][:len(ro)], r.NewScalar(l, cc), false, 0)
	}
	out.IsNTT = a.IsNTT
}

// Scalar is a constant of one limb in the two forms MulScalarRow reads:
// canonical with its Shoup companion, for the Go loop, and in Montgomery
// form (c·2^52 mod q), for the kernel.
type Scalar struct {
	c, shoup, mont uint64
}

// NewScalar returns c mod q_l as a Scalar of limb l.
func (r *Ring) NewScalar(l int, c uint64) Scalar {
	m := r.Moduli[l]
	c = m.Reduce(c)
	return Scalar{c: c, shoup: m.ShoupPrecomp(c), mont: m.Mul(c, montR%m.Q)}
}

// MulScalarRow sets out[i] = a[i]·c mod q_l, or adds that into out[i]
// when add is set, over the words of a (out at least as long; it may be
// a): the one broadcast sweep, behind MulScalar and BFV's Δ·m. With t set
// (t < q_l), a holds residues mod t read through their centred lift — a
// word above t/2 becomes q_l − t + it — as BFV's encryption scales them.
// The kernel (vec.MulMontConst) runs whole blocks of in-range words; the
// Go loop runs the rest and takes any word, multiplying through the
// Shoup companion, so the two agree on every input. out must be
// canonical when add is set.
func (r *Ring) MulScalarRow(l int, out, a []uint64, c Scalar, add bool, t uint64) {
	m := r.Moduli[l]
	q := m.Q
	half, negAdd := t/2, uint64(0)
	if t != 0 {
		negAdd = q - t
	}
	for i := vec.MulMontConst(q, montInv(q), out, a, c.mont, add, t); i < len(a); i++ {
		x := a[i]
		x += uint64(int64(half-x)>>63) & negAdd // all ones iff x > t/2
		p := m.MulShoup(x, c.c, c.shoup)
		if add { // branch-free, as in MulCoeffMont
			p += out[i]
			p = min(p, p-q)
		}
		out[i] = p
	}
}

// NTT transforms p to the evaluation domain in place: any representatives
// below 4q in, canonical residues out. Panics if already there.
func (r *Ring) NTT(p *Poly) {
	if p.IsNTT {
		panic("ring: NTT of an NTT-domain polynomial")
	}
	for l := range p.Coeffs {
		r.Tables[l].ForwardLazy(p.Coeffs[l])
	}
	p.IsNTT = true
}

// NTTLift sets every limb of out to the forward transform of the centred
// lift of src, canonical residues of a source modulus qFrom (a limb of the
// ring or not): limb l holds NTT_l of each x taken as x, or x − qFrom where
// x > qFrom/2. The kernels lift each word as the transform's first pass
// loads it, so no lifted row is ever stored. src may be out's first limb,
// which is transformed last; no other limb may overlap it.
func (r *Ring) NTTLift(out *Poly, src []uint64, qFrom uint64) {
	for _, row := range out.Coeffs {
		if len(row) != r.N {
			panic("ring: lift level mismatch")
		}
	}
	for l := len(out.Coeffs) - 1; l >= 0; l-- {
		r.Tables[l].ForwardLazyLift(out.Coeffs[l], src, qFrom)
	}
	out.IsNTT = true
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

// What each sampler draws from the generator is part of its contract, so a
// seed keeps producing the same keys and ciphertexts: UniformPoly one
// Uint64 per residue, limb-major; TernaryPoly one Intn(3) (a rejection loop
// over Int31) per coefficient; CBDPoly one Uint64 per coefficient, of which
// it reads the two low eta-bit fields.

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

// addSmall adds the centred value v, |v| < every limb modulus, to
// coefficient i of every limb, canonical.
func (r *Ring) addSmall(p *Poly, i int, v int64) {
	neg := uint64(v >> 63) // all ones iff v < 0
	for l, row := range p.Coeffs {
		q := r.Moduli[l].Q
		s := row[i] + uint64(v) + neg&q // in [0, 2q)
		row[i] = min(s, s-q)
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
// gives a standard deviation ≈ 3.24, matching the usual σ = 3.2. Each
// coefficient is popcount(w & mask) − popcount((w >> eta) & mask) of one
// generator word w, mask = 2^eta − 1: the difference of two sums of eta
// independent fair bits, which is CBD(eta) exactly. eta must be in
// [1, 32] and below every limb modulus (rlwe.NewParams checks both).
func (r *Ring) CBDPoly(rng *rand.Rand, p *Poly, eta int) { r.cbd(rng, p, eta, false) }

// AddCBDPoly adds a CBDPoly sample to p, a coefficient-domain polynomial,
// drawing the same words: encryption's noise onto its payload.
func (r *Ring) AddCBDPoly(rng *rand.Rand, p *Poly, eta int) {
	requireCoeffDomain(p)
	r.cbd(rng, p, eta, true)
}

// cbd is CBDPoly, and with add set AddCBDPoly.
func (r *Ring) cbd(rng *rand.Rand, p *Poly, eta int, add bool) {
	if eta < 1 || eta > 32 {
		panic("ring: CBD parameter outside [1, 32]")
	}
	for l := range p.Coeffs {
		if uint64(eta) >= r.Moduli[l].Q {
			panic("ring: CBD parameter not below the modulus")
		}
	}
	mask := uint64(1)<<eta - 1
	for i := 0; i < r.N; i++ {
		w := rng.Uint64()
		v := int64(bits.OnesCount64(w&mask)) - int64(bits.OnesCount64(w>>eta&mask))
		if add {
			r.addSmall(p, i, v)
		} else {
			r.setSmall(p, i, v)
		}
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
