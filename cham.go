// Package cham is a Go reproduction of CHAM, the homomorphic-encryption
// accelerator for fast matrix-vector products (Ren et al., DAC 2023).
//
// The package exposes two halves:
//
//   - A functional HE library: B/FV over the paper's parameter set
//     (N=4096, two 35-bit ciphertext limbs, a 39-bit special modulus,
//     t=65537), coefficient-encoded homomorphic matrix-vector products
//     (Alg. 1) with LWE extraction and repacking (Alg. 2/3), 2-D
//     convolution, and the batch-encoded baseline. Results are genuinely
//     correct ciphertext computations.
//
//   - A hardware model: cycle-level simulation of the CHAM macro-pipeline,
//     FPGA resource estimation calibrated to the paper's Tables II/III,
//     design-space exploration, and calibrated CPU/GPU/Paillier cost
//     models that regenerate every evaluation table and figure (see
//     RunExperiment and cmd/chamsim).
//
// Quick start:
//
//	params := cham.MustParams(4096)
//	rng := cham.NewRNG(1)
//	sk := params.KeyGen(rng)
//	ev, _ := cham.NewEvaluator(params, rng, sk, 1024)
//	ct := cham.EncryptVector(params, rng, sk, vector)
//	res, _ := ev.MatVec(matrix, ct)
//	product := cham.DecryptResult(params, res, sk)
package cham

import (
	crand "crypto/rand"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"strings"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/exp"
	"cham/internal/lwe"
	"cham/internal/noise"
	"cham/internal/rlwe"
	"cham/internal/security"
)

// Core HE types, re-exported from the implementation packages.
type (
	// Params bundles the ring, the RNS basis and the plaintext modulus.
	Params = bfv.Params
	// Plaintext is an unscaled mod-t polynomial.
	Plaintext = bfv.Plaintext
	// Ciphertext is an RLWE pair (b, a).
	Ciphertext = rlwe.Ciphertext
	// SecretKey is a ternary RLWE secret.
	SecretKey = rlwe.SecretKey
	// PublicKey enables encryption without the secret.
	PublicKey = rlwe.PublicKey
	// LWECiphertext is a single extracted coefficient (Eq. 3).
	LWECiphertext = lwe.Ciphertext
	// Evaluator computes homomorphic matrix-vector products (Alg. 1).
	Evaluator = core.Evaluator
	// Result is a packed HMVP output.
	Result = core.Result
	// Conv2DShape describes a valid 2-D convolution.
	Conv2DShape = core.Conv2DShape
	// BatchEvaluator is the SIMD rotate-and-sum baseline (§II-E).
	BatchEvaluator = core.BatchEvaluator
)

// Hardware-model types.
type (
	// Accelerator is a cycle-level CHAM instance.
	Accelerator = exp.Config
	// EngineConfig selects per-engine design parameters.
	EngineConfig = exp.EngineConfig
	// DesignPoint is one explored configuration (Fig. 2b).
	DesignPoint = exp.DesignPoint
)

// NewParams builds the paper's parameter set at ring degree n (4096 in
// production; smaller powers of two for experimentation).
func NewParams(n int) (Params, error) { return bfv.NewChamParams(n) }

// MustParams panics on error.
func MustParams(n int) Params { return bfv.MustChamParams(n) }

// NewRNG returns a deterministic randomness source for reproducible runs:
// a seed always yields the same keys and ciphertexts. It is not a
// cryptographic generator; NewSecureRNG is the one to protect real data
// with.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NewSecureRNG returns a cryptographically secure randomness source:
// ChaCha8 (math/rand/v2) keyed with 32 bytes from crypto/rand, behind the
// math/rand interface so it goes wherever NewRNG does. Like any *rand.Rand
// it is not safe for concurrent use; give each goroutine its own. It
// cannot be reseeded. The library as a whole is still a research
// prototype: nothing else is hardened (no constant-time arithmetic).
func NewSecureRNG() *rand.Rand {
	var key [32]byte
	// From Go 1.24 Read never fails; before it, a failure means the
	// system has no entropy source, and no key is better than a weak one.
	if _, err := crand.Read(key[:]); err != nil {
		panic("cham: crypto/rand: " + err.Error())
	}
	return rand.New(chachaSource{randv2.NewChaCha8(key)})
}

// chachaSource adapts a ChaCha8 stream to math/rand's Source64.
type chachaSource struct{ c *randv2.ChaCha8 }

func (s chachaSource) Uint64() uint64 { return s.c.Uint64() }
func (s chachaSource) Int63() int64   { return int64(s.c.Uint64() >> 1) }
func (s chachaSource) Seed(int64)     { panic("cham: a secure source cannot be reseeded") }

// NewEvaluator prepares packing keys for HMVPs with up to maxRows output
// rows per tile.
func NewEvaluator(p Params, rng *rand.Rand, sk *SecretKey, maxRows int) (*Evaluator, error) {
	return core.NewEvaluator(p, rng, sk, maxRows)
}

// NewBatchEvaluator prepares the SIMD baseline's trace keys.
func NewBatchEvaluator(p Params, rng *rand.Rand, sk *SecretKey) (*BatchEvaluator, error) {
	return core.NewBatchEvaluator(p, rng, sk)
}

// EncryptVector encrypts v into ⌈len(v)/N⌉ augmented ciphertexts.
func EncryptVector(p Params, rng *rand.Rand, sk *SecretKey, v []uint64) []*Ciphertext {
	return core.EncryptVector(p, rng, sk, v)
}

// EncryptVectorPK is EncryptVector under a public key.
func EncryptVectorPK(p Params, rng *rand.Rand, pk *PublicKey, v []uint64) []*Ciphertext {
	return core.EncryptVectorPK(p, rng, pk, v)
}

// DecryptResult reads an HMVP result vector.
func DecryptResult(p Params, res *Result, sk *SecretKey) []uint64 {
	return core.DecryptResult(p, res, sk)
}

// PlainMatVec is the cleartext reference A·v mod t.
func PlainMatVec(p Params, a [][]uint64, v []uint64) []uint64 {
	return core.PlainMatVec(p, a, v)
}

// Conv2D convolves an encrypted image with a cleartext kernel via
// coefficient packing.
func Conv2D(p Params, s Conv2DShape, ctImg *Ciphertext, kernel [][]uint64) (*Ciphertext, error) {
	return core.Conv2D(p, s, ctImg, kernel)
}

// EncodeImage lays an image out for Conv2D.
func EncodeImage(p Params, s Conv2DShape, img [][]uint64) (*Plaintext, error) {
	return core.EncodeImage(p, s, img)
}

// DecodeConvOutput extracts the valid convolution outputs.
func DecodeConvOutput(p Params, s Conv2DShape, pt *Plaintext) [][]uint64 {
	return core.DecodeConvOutput(p, s, pt)
}

// DefaultAccelerator returns the published two-engine CHAM instance.
func DefaultAccelerator() Accelerator { return exp.ChamConfig() }

// ExploreDesignSpace re-runs the Fig. 2b exploration on the VU9P.
func ExploreDesignSpace() []DesignPoint { return exp.Explore(exp.VU9P) }

// Experiments lists the reproducible paper artifacts.
func Experiments() []string {
	var ids []string
	for _, e := range exp.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates one table/figure by id ("table2", "fig6", ...)
// and returns the rendered text.
func RunExperiment(id string) (string, error) {
	e, ok := exp.Find(id)
	if !ok {
		return "", fmt.Errorf("cham: unknown experiment %q (have %s)",
			id, strings.Join(Experiments(), ", "))
	}
	return e.Render(), nil
}

// NoiseEstimator returns the analytic noise-budget estimator for the
// parameter set (see internal/noise): predictions are validated against
// measured ciphertext noise in this repository's tests.
func NoiseEstimator(p Params) *noise.Estimator { return noise.New(p) }

// CheckSecurity validates the parameters against the HE standard at
// 128-bit security (ternary secrets). CHAM's production set passes with
// <3 bits of headroom — the paper's "space of 109 bit".
func CheckSecurity(p Params) error { return security.Check(p.Params, security.Level128) }
