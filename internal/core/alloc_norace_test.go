//go:build !race

package core

// Warm-path allocation assertions. AllocsPerRun is meaningless under the
// race detector's instrumented allocator, so this file is excluded from
// `make race`.

import (
	"testing"

	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// TestApplyWarmZeroAllocs: once the result is preallocated and the scratch
// pools are warm, ApplyInto, ApplyBatchInto and ApplyTiles perform zero heap
// allocations — single- and multi-chunk shapes, serial workers (goroutine
// fan-out would allocate stacks, so the answer must not depend on the
// host's core count).
func TestApplyWarmZeroAllocs(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev.Workers = 1
	const batch = 3
	for _, cols := range []int{64, 100} { // one chunk, two chunks
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
		} {
			run := func() {
				if err := tc.apply(); err != nil {
					t.Fatalf("40x%d %s: %v", cols, tc.name, err)
				}
			}
			// Warm the evaluator's scratch pools.
			run()
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("40x%d warm %s allocates %.1f/op, want 0", cols, tc.name, allocs)
			}
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
