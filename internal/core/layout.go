package core

// The HMVP's two vector layouts (PAPER.md §1, Alg. 1/3). This file is
// the only place that knows them: every package that encrypts an input,
// reads or offsets an output, or sizes a tile goes through it.
//
// Dense, the input: a vector of n entries is ⌈n/N⌉ augmented-basis
// chunks (one for an empty vector); chunk c holds entries
// [c·N, min((c+1)·N, n)) at coefficients 0, 1, ….
//
// Packed, the output: an m-row product is ⌈m/N⌉ tiles, one packed
// normal-basis ciphertext each; tile ti holds rows [ti·N, ti·N+rows),
// rows ≤ N, padded to mPad = 2^⌈log₂ rows⌉, with its row i at
// coefficient i·N/mPad.

import (
	"fmt"
	"math/bits"
	"math/rand"

	"cham/internal/bfv"
	"cham/internal/lwe"
	"cham/internal/rlwe"
)

// chunkCount returns the dense chunk count of an n-entry vector at ring
// degree N: ⌈n/N⌉, and one for an empty vector.
func chunkCount(N, n int) int { return max((n+N-1)/N, 1) }

// chunkSpan returns the entries [lo, hi) of an n-entry vector that dense
// chunk c holds at ring degree N.
func chunkSpan(N, n, c int) (lo, hi int) {
	lo = min(c*N, n)
	return lo, min(lo+N, n)
}

// EncryptVector encrypts v as its dense chunks, the form party A ships to
// party B (§II-F security model).
func EncryptVector(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, v []uint64) []*rlwe.Ciphertext {
	cts := make([]*rlwe.Ciphertext, chunkCount(p.R.N, len(v)))
	for c := range cts {
		lo, hi := chunkSpan(p.R.N, len(v), c)
		cts[c] = p.Encrypt(rng, sk, p.EncodeVector(v[lo:hi]), p.R.Levels())
	}
	return cts
}

// EncryptVectorPK is EncryptVector with a public key. The two loops stay
// apart: one shared through a func value would make every chunk's
// plaintext escape to the heap.
func EncryptVectorPK(p bfv.Params, rng *rand.Rand, pk *rlwe.PublicKey, v []uint64) []*rlwe.Ciphertext {
	cts := make([]*rlwe.Ciphertext, chunkCount(p.R.N, len(v)))
	for c := range cts {
		lo, hi := chunkSpan(p.R.N, len(v), c)
		cts[c] = p.EncryptPK(rng, pk, p.EncodeVector(v[lo:hi]), p.R.Levels())
	}
	return cts
}

// AddVector adds the cleartext v (entries reduced mod t) to the vector
// whose dense chunks are cts, in place. v is as long as that vector.
func AddVector(p bfv.Params, cts []*rlwe.Ciphertext, v []uint64) {
	for c, ct := range cts {
		lo, hi := chunkSpan(p.R.N, len(v), c)
		p.AddPlain(ct, p.EncodeVector(v[lo:hi]))
	}
}

// CheckVectorShape checks one encrypted vector against a matrix of the
// given column-chunk count: its chunk count, and every chunk's two parts
// in the full basis at the ring's degree. It is the one rule for an HMVP
// input, run by PreparedMatrix.CheckVector and, before its first write,
// by a client that holds only the matrix's handle (chamnp's remote
// backend).
func CheckVectorShape(p bfv.Params, chunks int, ctV []*rlwe.Ciphertext) error {
	if len(ctV) != chunks {
		return fmt.Errorf("%w: matrix has %d column chunks but vector has %d ciphertexts", ErrVectorLength, chunks, len(ctV))
	}
	for c, ct := range ctV {
		if ct == nil || ct.B == nil || ct.A == nil {
			return fmt.Errorf("%w: ciphertext %d is nil", ErrVectorLength, c)
		}
		if !hasShape(ct.B, p.R.Levels(), p.R.N) || !hasShape(ct.A, p.R.Levels(), p.R.N) {
			return fmt.Errorf("%w: ciphertext %d is not %d limbs of N = %d per part", ErrVectorBasis, c, p.R.Levels(), p.R.N)
		}
	}
	return nil
}

// DecryptVector reads the first n entries of the vector whose dense
// chunks are cts.
func DecryptVector(p bfv.Params, cts []*rlwe.Ciphertext, sk *rlwe.SecretKey, n int) []uint64 {
	out := make([]uint64, n)
	for c, ct := range cts {
		lo, hi := chunkSpan(p.R.N, n, c)
		copy(out[lo:hi], p.Decrypt(ct, sk).Coeffs)
	}
	return out
}

// Result is the outcome of an HMVP: the packed tiles of an M-row product.
type Result struct {
	Packed []*rlwe.Ciphertext
	M      int // total number of rows
	N      int // ring degree
}

// TileLayout places one tile of a packed product: rows [Base, Base+Rows),
// padded to Pad rows (a power of two), row Base+i at coefficient Slot(i).
type TileLayout struct {
	Base, Rows, Pad int
	stride          int
}

// Slot returns the coefficient that holds the tile's row i.
func (t TileLayout) Slot(i int) int { return i * t.stride }

// tileLayout places tile ti of an m-row product at ring degree n.
func tileLayout(m, n, ti int) TileLayout {
	base := ti * n
	rows := min(m-base, n)
	pad := nextPow2(rows)
	return TileLayout{Base: base, Rows: rows, Pad: pad, stride: lwe.SlotStride(n, pad)}
}

// Tile returns where tile i keeps its rows.
func (res *Result) Tile(i int) TileLayout { return tileLayout(res.M, res.N, i) }

// MaxTilePad returns the padded row count of the largest tile of an
// m-row product at ring degree n — the first tile's: the packing tree's
// leaf count, and the packing keys the product needs.
func MaxTilePad(m, n int) int { return tileLayout(m, n, 0).Pad }

func nextPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// eachTile walks the packed layout: f gets every tile's ciphertext and
// placement, in row order.
func (res *Result) eachTile(f func(ct *rlwe.Ciphertext, t TileLayout)) {
	for ti, ct := range res.Packed {
		f(ct, res.Tile(ti))
	}
}

// DecryptResult reads the m result values out of the packed ciphertexts:
// each tile's phase once, then the rounding of Decrypt at only the slots
// its rows occupy.
func DecryptResult(p bfv.Params, res *Result, sk *rlwe.SecretKey) []uint64 {
	out := make([]uint64, 0, res.M)
	res.eachTile(func(ct *rlwe.Ciphertext, t TileLayout) {
		phase := p.R.GetPoly(ct.Levels())
		p.PhaseInto(phase, ct, sk)
		for i := range t.Rows {
			out = append(out, p.RoundAt(phase, t.Slot(i)))
		}
		p.R.PutPoly(phase)
	})
	return out
}

// AddResult adds the cleartext v (one entry per row, reduced mod t) to
// the product res encrypts, in place: entry r lands in row r's slot.
func AddResult(p bfv.Params, res *Result, v []uint64) {
	res.eachTile(func(ct *rlwe.Ciphertext, t TileLayout) {
		pt := p.NewPlaintext()
		for i := range t.Rows {
			pt.Coeffs[t.Slot(i)] = p.T.Reduce(v[t.Base+i])
		}
		p.AddPlain(ct, pt)
	})
}
