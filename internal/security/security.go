// Package security validates encryption parameters against the
// Homomorphic Encryption Standard's tables (Albrecht et al.): for a given
// ring degree and secret distribution, the total ciphertext modulus
// (including special limbs — the key-switching keys live at Q·P) must not
// exceed the tabulated bit budget for the target security level.
//
// CHAM's §II-F parameter sentence — N=4096 "corresponds to a space of 109
// bit", split 35+35 ciphertext + 39 special — is exactly the ternary
// 128-bit row of that table; the tests pin it.
package security

import (
	"fmt"
	"math"

	"cham/internal/rlwe"
)

// Level is a target security level in bits.
type Level int

// Standard levels.
const (
	Level128 Level = 128
	Level192 Level = 192
	Level256 Level = 256
)

// maxLogQP tabulates the HE-standard ceilings for ternary secrets:
// maxLogQP[level][logN] = maximum total modulus bits.
var maxLogQP = map[Level]map[int]int{
	Level128: {10: 27, 11: 54, 12: 109, 13: 218, 14: 438, 15: 881},
	Level192: {10: 19, 11: 37, 12: 75, 13: 152, 14: 305, 15: 611},
	Level256: {10: 14, 11: 29, 12: 58, 13: 118, 14: 237, 15: 476},
}

// LogQP returns the total modulus size in bits (sum over every limb,
// special limbs included, as the key material is encrypted at Q·P).
func LogQP(p rlwe.Params) float64 {
	total := 0.0
	for _, m := range p.R.Moduli {
		total += math.Log2(float64(m.Q))
	}
	return total
}

// Check validates the parameter set against the standard at the given
// level. It errors when the ring degree is outside the tabulated range or
// the modulus exceeds the ceiling.
func Check(p rlwe.Params, level Level) error {
	table, ok := maxLogQP[level]
	if !ok {
		return fmt.Errorf("security: unknown level %d", level)
	}
	logN := 0
	for v := p.R.N; v > 1; v >>= 1 {
		logN++
	}
	ceiling, ok := table[logN]
	if !ok {
		return fmt.Errorf("security: no standard entry for N=2^%d", logN)
	}
	if got := LogQP(p); got > float64(ceiling) {
		return fmt.Errorf("security: logQP %.2f exceeds the %d-bit ceiling %d for N=2^%d",
			got, level, ceiling, logN)
	}
	return nil
}

// NominalBits returns the sum of the limb bit-LENGTHS — the counting the
// paper's "space of 109 bit" sentence uses (35+35+39), slightly above the
// true log2(QP).
func NominalBits(p rlwe.Params) int {
	total := 0
	for _, m := range p.R.Moduli {
		total += bitLen(m.Q)
	}
	return total
}

func bitLen(v uint64) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}
