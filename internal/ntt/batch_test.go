package ntt

import (
	"math/rand"
	"testing"

	"cham/internal/mod"
	"cham/internal/vec"
)

// Differential coverage for the limb-batched transforms: at every CHAM
// modulus and the benchmarked ring degrees, on the host's kernels and on
// the Go loops, ForwardBatch/InverseBatch must equal ForwardLazy/
// InverseLazy row by row — every row transformed exactly once — for every
// batch width (1, 2, 3 rows: the pair path plus the odd remainder).
// "Strict" is the input contract: the batch is fed lazy (non-canonical)
// representatives inside the documented headroom and must match the
// one-row transform of the strictly reduced residues.

var batchSizes = []int{256, 512, 4096}

// lazyPoly returns n coefficients uniform in [0, bound) — representatives
// deliberately above q to exercise the lazy-reduction input contract.
func lazyPoly(rng *rand.Rand, n int, bound uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % bound
	}
	return a
}

// canon reduces a lazy representative vector to canonical residues.
func canon(a []uint64, q uint64) []uint64 {
	out := make([]uint64, len(a))
	for i, x := range a {
		out[i] = x % q
	}
	return out
}

// bothKernelModes runs f on the host's kernels and again with the vector
// kernels forced off, the two settings of the process-global switch.
func bothKernelModes(t *testing.T, f func(t *testing.T)) {
	t.Run("host", f)
	t.Run("generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		f(t)
	})
}

func TestForwardBatchMatchesStrict(t *testing.T) {
	bothKernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, q := range mod.ChamModuli() {
			for _, n := range batchSizes {
				tb := MustTable(n, q)
				for _, width := range []int{1, 2, 3} {
					rows := make([][]uint64, width)
					want := make([][]uint64, width)
					for r := range rows {
						// Inputs anywhere in [0, 4q): the batch must
						// canonicalize them to the output the one-row
						// transform produces from the reduced residues.
						rows[r] = lazyPoly(rng, n, 4*q)
						want[r] = canon(rows[r], q)
						tb.ForwardLazy(want[r])
					}
					tb.ForwardBatch(rows...)
					for r := range rows {
						for i := range rows[r] {
							if rows[r][i] != want[r][i] {
								t.Fatalf("q=%d N=%d width=%d row=%d: ForwardBatch[%d]=%d, ForwardLazy=%d",
									q, n, width, r, i, rows[r][i], want[r][i])
							}
						}
					}
				}
			}
		}
	})
}

func TestInverseBatchMatchesStrict(t *testing.T) {
	bothKernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for _, q := range mod.ChamModuli() {
			for _, n := range batchSizes {
				tb := MustTable(n, q)
				for _, width := range []int{1, 2, 3} {
					rows := make([][]uint64, width)
					want := make([][]uint64, width)
					for r := range rows {
						// Inverse inputs may sit in [0, 2q) — the lazy forward
						// MAC chain hands exactly that to the completion path.
						rows[r] = lazyPoly(rng, n, 2*q)
						want[r] = canon(rows[r], q)
						tb.InverseLazy(want[r])
					}
					tb.InverseBatch(rows...)
					for r := range rows {
						for i := range rows[r] {
							if rows[r][i] != want[r][i] {
								t.Fatalf("q=%d N=%d width=%d row=%d: InverseBatch[%d]=%d, InverseLazy=%d",
									q, n, width, r, i, rows[r][i], want[r][i])
							}
						}
					}
				}
			}
		}
	})
}

// TestBatchRoundTrip: InverseBatch(ForwardBatch(a)) is the identity on
// canonical inputs, with both rows of a pair independent.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, q := range mod.ChamModuli() {
		tb := MustTable(512, q)
		a := randomPoly(rng, 512, q)
		b := randomPoly(rng, 512, q)
		ac := append([]uint64(nil), a...)
		bc := append([]uint64(nil), b...)
		tb.ForwardBatch(ac, bc)
		tb.InverseBatch(ac, bc)
		for i := range a {
			if ac[i] != a[i] || bc[i] != b[i] {
				t.Fatalf("q=%d: round trip diverged at %d", q, i)
			}
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	tb := MustTable(16, smallPrime(t, 16))
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBatch accepted a short row")
		}
	}()
	tb.ForwardBatch(make([]uint64, 16), make([]uint64, 8))
}
