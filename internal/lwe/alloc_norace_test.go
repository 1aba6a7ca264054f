//go:build !race

package lwe

// Warm-path allocation assertion. AllocsPerRun is meaningless under the
// race detector's instrumented allocator, so this file is excluded from
// `make race`.

import (
	"testing"

	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// TestPackWarmZeroAllocs: once the ring and decomposition pools are warm,
// folding 8 resident leaves and flushing the root performs zero heap
// allocations — serial workers (goroutine fan-out would allocate stacks).
func TestPackWarmZeroAllocs(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	const m = 8
	keys, err := GenPackingKeys(p, rng, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	pristine := NewPackNode(p)
	ResidentFromRLWE(p, pristine, p.Encrypt(rng, sk, p.NewPlaintext(), p.NormalLevels))
	nodes := make([]*PackNode, m)
	for i := range nodes {
		nodes[i] = NewPackNode(p)
	}
	out := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	pack := func() {
		// The tree consumes its leaves: refill them before every fold.
		for _, nd := range nodes {
			nd.BT.CopyFrom(pristine.BT)
			nd.A.CopyFrom(pristine.A)
		}
		root, err := PackResident(p, nodes, keys, 1)
		if err != nil {
			t.Fatal(err)
		}
		FlushInto(p, out, root)
	}
	for i := 0; i < 2; i++ {
		pack()
	}
	if allocs := testing.AllocsPerRun(10, pack); allocs != 0 {
		t.Errorf("warm PackResident+FlushInto allocates %.1f/op, want 0", allocs)
	}
}
