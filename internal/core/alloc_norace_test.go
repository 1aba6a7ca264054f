//go:build !race

package core

// Warm-path allocation assertions. AllocsPerRun is meaningless under the
// race detector's instrumented allocator, so this file is excluded from
// `make race`.

import (
	"testing"

	"cham/internal/lwe"
	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// TestApplyWarmZeroAllocs: once the result is preallocated and the scratch
// pools are warm, ApplyInto, ApplyBatchInto and ApplyTiles perform zero heap
// allocations — single- and multi-chunk shapes, serial and on two workers
// (the fold's goroutines start from funcs bound once into the pooled
// scratch, so a split allocates nothing whatever the host's core count),
// with and without a stage sink attached to every clock on the path.
func TestApplyWarmZeroAllocs(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	var sink stageTotals
	for _, shape := range []struct{ workers, cols int }{
		{1, 64}, {1, 100}, {2, 64}, {2, 100}, // one chunk, two chunks
	} {
		ev.Workers = shape.workers
		cols := shape.cols
		pm, err := ev.Prepare(testutil.Matrix(rng, 40, cols, p.T.Q))
		if err != nil {
			t.Fatal(err)
		}
		vecs := make([][]*rlwe.Ciphertext, batch)
		res := make([]*Result, batch)
		for k := range vecs {
			vecs[k] = EncryptVector(p, rng, sk, testutil.Vector(rng, cols, p.T.Q))
			res[k] = pm.NewResult()
		}
		for _, tc := range []struct {
			name  string
			apply func() error
		}{
			{"ApplyInto", func() error { return pm.ApplyInto(res[0], vecs[0]) }},
			{"ApplyBatchInto", func() error { return pm.ApplyBatchInto(res, vecs) }},
			{"ApplyTiles(nil)", func() error { return pm.ApplyTiles(res[0].Packed, nil, vecs[0], nil) }},
			{"ApplyTiles(sink)", func() error { return pm.ApplyTiles(res[0].Packed, nil, vecs[0], &sink) }},
		} {
			run := func() {
				if err := tc.apply(); err != nil {
					t.Fatalf("workers=%d 40x%d %s: %v", ev.Workers, cols, tc.name, err)
				}
			}
			// Warm the evaluator's scratch pools.
			run()
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("workers=%d 40x%d warm %s allocates %.1f/op, want 0", ev.Workers, cols, tc.name, allocs)
			}
		}
	}
}

// foldSlotBound is the reduce buffer the packing fold may hold for m leaves
// on w workers: each worker folds a subtree of 2^L leaves in at most L+1
// slots, and a split's join merges the two halves' roots in place.
func foldSlotBound(m, w int) int {
	if w == 1 {
		return log2(m) + 1
	}
	return foldSlotBound(m/2, w/2) + foldSlotBound(m/2, w-w/2)
}

// TestReduceBufferBounded: at the design point (256×4096, N=4096) the
// pooled apply scratch holds the fold's log₂-sized reduce buffer, not the
// 256 resident leaves (48 MB) the level-order walk kept, and a warm apply
// allocates nothing — serial and on two workers.
func TestReduceBufferBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 design point skipped in -short mode")
	}
	p := testParams(t, 4096)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	const rows = 256
	keys, err := lwe.GenPackingKeys(p, rng, sk, rows)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, rows, p.R.N, p.T.Q)
	ctV := EncryptVector(p, rng, sk, testutil.Vector(rng, p.R.N, p.T.Q))
	for _, workers := range []int{1, 2} {
		ev := &Evaluator{P: p, Keys: keys, Workers: workers} // fresh scratch pools
		pm, err := ev.Prepare(A)
		if err != nil {
			t.Fatal(err)
		}
		res := pm.NewResult()
		apply := func() {
			if err := pm.ApplyInto(res, ctV); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		apply()
		sc := ev.getApplyScratch(pm.Chunks())
		got, bound := sc.fold.Slots(), foldSlotBound(rows, workers)
		ev.putApplyScratch(sc)
		t.Logf("workers=%d: %d tree nodes resident (bound %d)", workers, got, bound)
		if got > bound {
			t.Errorf("workers=%d: apply scratch holds %d tree nodes, want ≤ %d", workers, got, bound)
		}
		if allocs := testing.AllocsPerRun(3, apply); allocs != 0 {
			t.Errorf("workers=%d: warm 256x4096 ApplyInto allocates %.1f/op, want 0", workers, allocs)
		}
	}
}

// TestClientHalfAllocs pins the heap traffic of the client's two calls
// around an apply: encrypting a vector allocates the ciphertexts it
// returns and little else (≤ 16 per chunk), reading a result back only
// the values and one plaintext per tile (≤ 8 per tile) — no big.Int.
func TestClientHalfAllocs(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev.Workers = 1
	const rows, cols = 100, 150 // two row tiles, three column chunks
	pm, err := ev.Prepare(testutil.Matrix(rng, rows, cols, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, cols, p.T.Q)
	var ctV []*rlwe.Ciphertext
	encrypt := func() { ctV = EncryptVector(p, rng, sk, v) }
	encrypt()
	if allocs := testing.AllocsPerRun(10, encrypt); allocs > 16*float64(pm.Chunks()) {
		t.Errorf("EncryptVector allocates %.1f for %d chunks, want ≤ 16 per chunk", allocs, pm.Chunks())
	}
	res, err := pm.Apply(ctV)
	if err != nil {
		t.Fatal(err)
	}
	decrypt := func() { DecryptResult(p, res, sk) }
	decrypt()
	if allocs := testing.AllocsPerRun(10, decrypt); allocs > 8*float64(pm.Tiles()) {
		t.Errorf("DecryptResult allocates %.1f for %d tiles, want ≤ 8 per tile", allocs, pm.Tiles())
	}
}
