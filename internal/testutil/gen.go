package testutil

import (
	"math/bits"
	"math/rand"
)

// Seeded generators for the shapes the HMVP stack consumes. Everything is
// a pure function of the supplied *rand.Rand, so tests stay reproducible
// end to end.

// Vector returns a length-n vector of uniform values below bound.
func Vector(rng *rand.Rand, n int, bound uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % bound
	}
	return v
}

// Matrix returns an m×n matrix of uniform values below bound.
func Matrix(rng *rand.Rand, m, n int, bound uint64) [][]uint64 {
	A := make([][]uint64, m)
	for i := range A {
		A[i] = Vector(rng, n, bound)
	}
	return A
}

// SparseMatrix returns an m×n matrix with at most nnz random non-zero
// entries per row (positions and values uniform). Sparse rows keep the
// O(N²) big.Int reference model tractable at N=4096 while still exercising
// random positions, values, and sign wrap-arounds.
func SparseMatrix(rng *rand.Rand, m, n, nnz int, bound uint64) [][]uint64 {
	A := make([][]uint64, m)
	for i := range A {
		row := make([]uint64, n)
		for k := 0; k < nnz; k++ {
			row[rng.Intn(n)] = 1 + rng.Uint64()%(bound-1)
		}
		A[i] = row
	}
	return A
}

// Shape is one HMVP matrix geometry.
type Shape struct {
	Rows, Cols int
}

// Chunks returns the number of vector ciphertexts the shape needs at ring
// degree n.
func (s Shape) Chunks(n int) int { return (s.Cols + n - 1) / n }

// HMVPShapes returns randomized matrix geometries for ring degree n,
// guaranteed to cover the edge cases the packing/tiling logic branches on:
// a single row (no packing tree), non-power-of-two row counts (padding),
// and multi-chunk column counts (2 and 3 chunks, including a non-multiple
// of n). Row counts stay small so the reference model's key-switch
// convolutions remain affordable.
func HMVPShapes(rng *rand.Rand, n int) []Shape {
	offset := func() int { return 1 + rng.Intn(n-1) }
	return []Shape{
		{Rows: 1, Cols: n + offset()},   // single row, 2 chunks
		{Rows: 2, Cols: offset()},       // partial single chunk
		{Rows: 3, Cols: n + offset()},   // non-pow2 rows, 2 chunks
		{Rows: 4, Cols: 2 * n},          // exact 2-chunk boundary
		{Rows: 6, Cols: 2*n + offset()}, // non-pow2 rows, 3 chunks
	}
}

// SchoolbookMul returns a·b mod (X^N+1, q) by O(N²) convolution on reduced
// residues (q < 2^63): the oracle the transform, ring and reference-model
// tests check negacyclic products against.
func SchoolbookMul(q uint64, a, b []uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := range a {
		for j := range b {
			hi, lo := bits.Mul64(a[i], b[j])
			_, p := bits.Div64(hi, lo, q)
			if k := i + j; k < n {
				out[k] = (out[k] + p) % q
			} else {
				out[k-n] = (out[k-n] + q - p) % q
			}
		}
	}
	return out
}
