// Package heterolr implements FATE-style heterogeneous (vertically
// partitioned) logistic regression — the paper's §V-B.3 application —
// on top of the CHAM HMVP stack: party A and party B hold disjoint
// feature columns, party B holds the labels, and an arbiter holds the
// decryption key. Each iteration the Taylor-approximated residual is
// encrypted and both parties compute their gradient block as a
// homomorphic matrix-vector product X^T·[d].
//
// Because CHAM's plaintext modulus (t = 65537) is too small for
// gradient accumulations, values are carried in CRT over two plaintext
// moduli — the "matrix tiling + CRT" trick the paper alludes to for
// supporting data of any scale. The ring, keys and ciphertext moduli are
// shared; only the plaintext scaling differs.
package heterolr

import (
	"fmt"
	"math"
	"math/big"

	"cham/internal/bfv"
	"cham/internal/mod"
	"cham/internal/ring"
)

// T1 is the companion plaintext modulus: the Proth prime 3·2^18 + 1,
// coprime to bfv.DefaultT, giving a combined plaintext space of ~2^36.6.
const T1 = 3*(1<<18) + 1

// Codec encodes signed fixed-point values into the two plaintext residue
// channels.
type Codec struct {
	P0, P1 bfv.Params
	F      uint // fraction bits
	space  *big.Int
}

// NewCodec builds the two parameter sets over one shared ring.
func NewCodec(n int, f uint) (*Codec, error) {
	r, err := ring.New(n, mod.ChamModuli())
	if err != nil {
		return nil, err
	}
	p0, err := bfv.NewParams(r, 2, 21, bfv.DefaultT)
	if err != nil {
		return nil, err
	}
	p1, err := bfv.NewParams(r, 2, 21, T1)
	if err != nil {
		return nil, err
	}
	space := new(big.Int).Mul(
		new(big.Int).SetUint64(bfv.DefaultT), new(big.Int).SetUint64(T1))
	return &Codec{P0: p0, P1: p1, F: f, space: space}, nil
}

// EncodeInt maps a signed integer into its two residues.
func (c *Codec) EncodeInt(v int64) (uint64, uint64) {
	return c.P0.T.FromCentered(v), c.P1.T.FromCentered(v)
}

// Encode quantizes x to F fraction bits and returns the residues.
func (c *Codec) Encode(x float64) (uint64, uint64) {
	return c.EncodeInt(c.Quantize(x))
}

// Quantize returns round(x·2^F).
func (c *Codec) Quantize(x float64) int64 {
	return int64(math.Round(x * float64(int64(1)<<c.F)))
}

// DecodeInt reconstructs the centred integer from the two residues via
// CRT. The value must fit in (-t0·t1/2, t0·t1/2].
func (c *Codec) DecodeInt(r0, r1 uint64) int64 {
	t0 := new(big.Int).SetUint64(c.P0.T.Q)
	t1 := new(big.Int).SetUint64(c.P1.T.Q)
	// v = r0 + t0·((r1-r0)·t0^{-1} mod t1)
	inv := new(big.Int).ModInverse(t0, t1)
	diff := new(big.Int).SetUint64(r1)
	diff.Sub(diff, new(big.Int).SetUint64(r0))
	diff.Mul(diff, inv)
	diff.Mod(diff, t1)
	v := diff.Mul(diff, t0)
	v.Add(v, new(big.Int).SetUint64(r0))
	half := new(big.Int).Rsh(c.space, 1)
	if v.Cmp(half) > 0 {
		v.Sub(v, c.space)
	}
	return v.Int64()
}

// Decode reconstructs a float carried at `prods` multiplicative depth
// (scale 2^(F·prods)).
func (c *Codec) Decode(r0, r1 uint64, prods uint) float64 {
	return float64(c.DecodeInt(r0, r1)) / math.Pow(2, float64(c.F*prods))
}

// CheckHeadroom verifies that an accumulation of `terms` products of
// depth-2 fixed-point values with the given magnitude bound fits the CRT
// space; call it before choosing F for a dataset size.
func (c *Codec) CheckHeadroom(terms int, bound float64) error {
	max := new(big.Float).SetFloat64(bound * bound * float64(terms))
	max.Mul(max, big.NewFloat(math.Pow(2, float64(2*c.F))))
	limit := new(big.Float).SetInt(new(big.Int).Rsh(c.space, 1))
	if max.Cmp(limit) >= 0 {
		return fmt.Errorf("heterolr: %d terms at bound %.1f overflow the CRT space with F=%d",
			terms, bound, c.F)
	}
	return nil
}
