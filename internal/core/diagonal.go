package core

import (
	"fmt"
	"math"
	"math/rand"

	"cham/internal/bfv"
	"cham/internal/rlwe"
)

// Diagonal-encoded HMVP — the GAZELLE / Halevi-Shoup method the paper
// names as the other O(m) approach (§II-E), implemented with genuine
// homomorphic slot rotations so the complexity comparison against Alg. 1
// is measured, not assumed.
//
// Slot geometry: the N slots split into two rows of N/2. Ordering the
// first row by powers of the group generator (slot i ↔ evaluation
// exponent 5^i mod 2N, the second row at the negated exponents), the
// automorphism X -> X^(5^r) rotates both rows left by r. The matrix is
// embedded into an (N/2)x(N/2) square so the cyclic wrap of slot
// rotations matches the diagonal wrap.
//
// MatVec uses n rotations (one per generalized diagonal); MatVecBSGS uses
// the baby-step/giant-step split with ~2*sqrt(n) key switches — the
// optimization real GAZELLE deployments apply, included here as the
// ablation counterpart.

// DiagonalEvaluator holds rotation keys and the slot-order tables.
type DiagonalEvaluator struct {
	P bfv.Params

	rotKeys map[int]*rlwe.SwitchingKey // rotation amount -> key for 5^r
	sigma   []int                      // σ-order position -> native slot index
	// KeySwitches counts homomorphic rotations performed (the §II-E
	// complexity metric).
	KeySwitches int
}

// pow5 returns 5^r mod 2N.
func pow5(r, n2 int) int {
	k := 1
	base := 5 % n2
	for i := 0; i < r; i++ {
		k = k * base % n2
	}
	return k
}

// NewDiagonalEvaluator generates rotation keys for the given rotation
// amounts (each in [1, N/2)).
func NewDiagonalEvaluator(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, rotations []int) (*DiagonalEvaluator, error) {
	if !p.CanBatch() {
		return nil, fmt.Errorf("core: diagonal method requires batching support")
	}
	n := p.R.N
	n2 := 2 * n
	e := &DiagonalEvaluator{P: p, rotKeys: map[int]*rlwe.SwitchingKey{}}

	// σ-order: first row at exponents 5^i, second row at -5^i.
	// Native slot j sits at exponent 2·brv(j)+1, so invert that map.
	slotOfExp := map[int]int{}
	logN := 0
	for v := n; v > 1; v >>= 1 {
		logN++
	}
	for j := 0; j < n; j++ {
		slotOfExp[(2*brvInt(j, logN)+1)%n2] = j
	}
	e.sigma = make([]int, n)
	g := 1
	for i := 0; i < n/2; i++ {
		e.sigma[i] = slotOfExp[g]
		e.sigma[i+n/2] = slotOfExp[n2-g]
		g = g * 5 % n2
	}

	for _, r := range rotations {
		if r <= 0 || r >= n/2 {
			return nil, fmt.Errorf("core: rotation %d out of range [1,%d)", r, n/2)
		}
		if _, ok := e.rotKeys[r]; ok {
			continue
		}
		e.rotKeys[r] = p.AutomorphismKeyGen(rng, sk, pow5(r, n2))
	}
	return e, nil
}

// brvInt mirrors bfv's bit reversal (kept unexported there).
func brvInt(x, width int) int {
	r := 0
	for i := 0; i < width; i++ {
		r = r<<1 | x&1
		x >>= 1
	}
	return r
}

// allRotations returns 1..count-1, the key set for the plain method.
func allRotations(count int) []int {
	out := make([]int, 0, count-1)
	for r := 1; r < count; r++ {
		out = append(out, r)
	}
	return out
}

// BSGSRotations returns the key set for MatVecBSGS over an n-slot row
// with baby size B: babies 1..B-1 and giants B, 2B, ...
func BSGSRotations(slots, baby int) []int {
	var out []int
	for r := 1; r < baby; r++ {
		out = append(out, r)
	}
	for g := baby; g < slots; g += baby {
		out = append(out, g)
	}
	return out
}

// encodeSigma builds a plaintext whose σ-order slots hold vals (length ≤
// N/2; the second row and remaining slots are zero).
func (e *DiagonalEvaluator) encodeSigma(vals []uint64) (*bfv.Plaintext, error) {
	n := e.P.R.N
	if len(vals) > n/2 {
		return nil, fmt.Errorf("core: %d values exceed the %d-slot row", len(vals), n/2)
	}
	native := make([]uint64, n)
	for i, v := range vals {
		native[e.sigma[i]] = e.P.T.Reduce(v)
	}
	return e.P.EncodeSlots(native)
}

// decodeSigma reads the first `count` σ-order slots.
func (e *DiagonalEvaluator) decodeSigma(pt *bfv.Plaintext, count int) ([]uint64, error) {
	native, err := e.P.DecodeSlots(pt)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = native[e.sigma[i]]
	}
	return out, nil
}

// EncryptRowVector encrypts v into the first slot row. The diagonal
// method rotates before multiplying, and rotations (key switches) operate
// on the normal basis, so the whole pipeline stays there — one of the
// structural overheads versus Alg. 1's augmented multiply-then-rescale.
func (e *DiagonalEvaluator) EncryptRowVector(rng *rand.Rand, sk *rlwe.SecretKey, v []uint64) (*rlwe.Ciphertext, error) {
	pt, err := e.encodeSigma(v)
	if err != nil {
		return nil, err
	}
	return e.P.Encrypt(rng, sk, pt, e.P.NormalLevels), nil
}

// rotate applies a homomorphic row rotation by r (0 = identity).
func (e *DiagonalEvaluator) rotate(ct *rlwe.Ciphertext, r int) (*rlwe.Ciphertext, error) {
	if r == 0 {
		return ct, nil
	}
	key, ok := e.rotKeys[r]
	if !ok {
		return nil, fmt.Errorf("core: no rotation key for %d", r)
	}
	e.KeySwitches++
	out := &rlwe.Ciphertext{B: e.P.R.NewPoly(e.P.NormalLevels), A: e.P.R.NewPoly(e.P.NormalLevels)}
	e.P.AutomorphCtInto(out, ct, pow5(r, 2*e.P.R.N), key)
	return out, nil
}

// diagonal extracts generalized diagonal d of the (N/2)x(N/2) embedding
// of A: diag_d[i] = A[i][(i+d) mod N/2] (zero outside A's bounds).
func (e *DiagonalEvaluator) diagonal(a [][]uint64, d int) []uint64 {
	slots := e.P.R.N / 2
	out := make([]uint64, slots)
	for i := 0; i < slots && i < len(a); i++ {
		j := (i + d) % slots
		if j < len(a[i]) {
			out[i] = e.P.T.Reduce(a[i][j])
		}
	}
	return out
}

// MatVec computes A·v with the plain diagonal method: one rotation and
// one slot-wise plaintext multiply per non-empty diagonal. The input
// ciphertext must come from EncryptRowVector; m, n ≤ N/2.
func (e *DiagonalEvaluator) MatVec(a [][]uint64, ctV *rlwe.Ciphertext) (*rlwe.Ciphertext, error) {
	slots := e.P.R.N / 2
	if err := e.checkShape(a); err != nil {
		return nil, err
	}
	var acc *rlwe.Ciphertext
	for d := 0; d < slots; d++ {
		diag := e.diagonal(a, d)
		if allZero(diag) {
			continue
		}
		rot, err := e.rotate(ctV, d)
		if err != nil {
			return nil, err
		}
		pt, err := e.encodeSigma(diag)
		if err != nil {
			return nil, err
		}
		prod := e.P.MulPlain(rot, pt)
		if acc == nil {
			acc = prod
		} else {
			e.P.Add(acc, acc, prod)
		}
	}
	if acc == nil { // all-zero matrix: a trivial encryption of zero
		lv := e.P.NormalLevels
		acc = &rlwe.Ciphertext{B: e.P.R.NewPoly(lv), A: e.P.R.NewPoly(lv)}
	}
	return acc, nil
}

// checkShape validates m, n ≤ N/2 and rectangularity.
func (e *DiagonalEvaluator) checkShape(a [][]uint64) error {
	slots := e.P.R.N / 2
	if len(a) == 0 || len(a[0]) == 0 {
		return fmt.Errorf("core: empty matrix")
	}
	if len(a) > slots || len(a[0]) > slots {
		return fmt.Errorf("core: diagonal method limited to %dx%d", slots, slots)
	}
	for i := range a {
		if len(a[i]) != len(a[0]) {
			return fmt.Errorf("core: ragged matrix row %d", i)
		}
	}
	return nil
}

func allZero(v []uint64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// MatVecBSGS is the baby-step/giant-step variant: rotations of the vector
// by 0..B-1 (baby steps) are shared across all giant groups; each group
// needs one giant rotation of its partial sum. Plaintext diagonals are
// pre-rotated in the clear. Roughly B + slots/B key switches.
func (e *DiagonalEvaluator) MatVecBSGS(a [][]uint64, ctV *rlwe.Ciphertext, baby int) (*rlwe.Ciphertext, error) {
	slots := e.P.R.N / 2
	if err := e.checkShape(a); err != nil {
		return nil, err
	}
	if baby < 1 || baby > slots {
		return nil, fmt.Errorf("core: baby size %d out of range", baby)
	}
	// Baby rotations of the vector, computed once.
	babies := make([]*rlwe.Ciphertext, baby)
	babies[0] = ctV
	for b := 1; b < baby; b++ {
		rot, err := e.rotate(ctV, b)
		if err != nil {
			return nil, err
		}
		babies[b] = rot
	}
	var acc *rlwe.Ciphertext
	for g := 0; g < slots; g += baby {
		// Inner sum over the group, on pre-rotated plaintext diagonals:
		// Σ_b rot_{-g}(diag_{g+b}) ∘ rot_b(v).
		var inner *rlwe.Ciphertext
		for b := 0; b < baby && g+b < slots; b++ {
			diag := e.diagonal(a, g+b)
			if allZero(diag) {
				continue
			}
			rotated := rotateSlice(diag, -g) // cleartext rot_{-g}
			pt, err := e.encodeSigma(rotated)
			if err != nil {
				return nil, err
			}
			prod := e.P.MulPlain(babies[b], pt)
			if inner == nil {
				inner = prod
			} else {
				e.P.Add(inner, inner, prod)
			}
		}
		if inner == nil {
			continue
		}
		if g > 0 {
			rot, err := e.rotate(inner, g)
			if err != nil {
				return nil, err
			}
			inner = rot
		}
		if acc == nil {
			acc = inner
		} else {
			e.P.Add(acc, acc, inner)
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("core: zero matrix")
	}
	return acc, nil
}

// DecryptRow reads the first `count` result slots.
func (e *DiagonalEvaluator) DecryptRow(ct *rlwe.Ciphertext, sk *rlwe.SecretKey, count int) ([]uint64, error) {
	return e.decodeSigma(e.P.Decrypt(ct, sk), count)
}

// rotateSlice applies the cleartext counterpart of rot_r: out[i] =
// v[(i+r) mod n] (r may be negative).
func rotateSlice(v []uint64, r int) []uint64 {
	n := len(v)
	out := make([]uint64, n)
	for i := range v {
		out[i] = v[((i+r)%n+n)%n]
	}
	return out
}

// DiagonalKeySwitchEstimate returns the rotation counts of the two
// variants for an n-column square embedding — the ablation numbers.
func DiagonalKeySwitchEstimate(slots, baby int) (plain, bsgs int) {
	plain = slots - 1
	bsgs = baby - 1 + int(math.Ceil(float64(slots)/float64(baby))) - 1
	return
}
