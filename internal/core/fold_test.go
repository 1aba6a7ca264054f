package core

import (
	"fmt"
	"runtime"
	"testing"

	"cham/internal/lwe"
	"cham/internal/ref"
	"cham/internal/rlwe"
	"cham/internal/testutil"
	"cham/internal/vec"
)

// TestFoldMatchesRef: the post-order packing fold runs the merges of
// ref.PackDeferred's level-order walk — same E, O, key and group size — in
// a different order, so every entry point must reproduce the reference's
// bytes at every worker count (including splits into uneven subtrees and
// more workers than cores), with and without the vector kernels: MatVec,
// the prepared ApplyInto, ApplyBatchInto and ApplyTiles, and on the lwe
// side PackLWEs and PackResident.
func TestFoldMatchesRef(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := ref.Keys(p, keys)
	full := make([]uint64, p.R.Levels())
	for l, m := range p.R.Moduli {
		full[l] = m.Q
	}
	normal := full[:p.NormalLevels]
	var workers []int
	for _, w := range []int{1, 2, 3, 4, runtime.NumCPU() + 3} {
		if len(workers) == 0 || w > workers[len(workers)-1] {
			workers = append(workers, w)
		}
	}

	type shape struct {
		name       string
		rows, cols int
		A          [][]uint64
		ctV        [2][]*rlwe.Ciphertext
		tr         [2]*ref.Trace
	}
	shapes := []*shape{
		{name: "padded", rows: 13, cols: 64},
		{name: "full-tile", rows: 64, cols: 64},
		{name: "multi-chunk", rows: 16, cols: 150},
		{name: "multi-tile", rows: 70, cols: 64},
	}
	for _, s := range shapes {
		s.A = testutil.Matrix(rng, s.rows, s.cols, p.T.Q)
		for k := range s.ctV {
			s.ctV[k] = EncryptVector(p, rng, sk, testutil.Vector(rng, s.cols, p.T.Q))
			if s.tr[k], err = ref.HMVP(p, s.A, s.ctV[k], refKeys); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The lwe entry points: 16 slot ciphertexts of one encryption.
	const m = 16
	ct := p.Encrypt(rng, sk, p.EncodeVector(testutil.Vector(rng, p.R.N, p.T.Q)), p.NormalLevels)
	refCt := ref.ComposeCiphertext(ct.B, ct.A, normal)
	lwes := make([]*lwe.Ciphertext, m)
	refSlots := make([]*ref.Ciphertext, m)
	for i := range lwes {
		lwes[i] = lwe.Extract(p, ct, i)
		refSlots[i] = ref.ExtractAsRLWE(refCt, i)
	}
	wantPack, err := ref.PackCiphertexts(refSlots, refKeys, full, p.NormalLevels)
	if err != nil {
		t.Fatal(err)
	}
	matchesPack := func(got *rlwe.Ciphertext) bool {
		return wantPack.B.MatchesRNS(got.B, normal) && wantPack.A.MatchesRNS(got.A, normal)
	}

	for _, generic := range []bool{false, true} {
		t.Run(fmt.Sprintf("generic=%v", generic), func(t *testing.T) {
			if generic {
				vec.ForceGeneric(t)
			}
			got, err := lwe.PackLWEs(p, lwes, keys)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesPack(got) {
				t.Error("PackLWEs differs from ref.PackCiphertexts")
			}
			nodes := make([]*lwe.PackNode, m)
			for i := range nodes {
				nodes[i] = lwe.NewPackNode(p)
			}
			out := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
			for _, w := range workers {
				for i, l := range lwes {
					lwe.ResidentFromRLWE(p, nodes[i], l.AsRLWE(p))
				}
				root, err := lwe.PackResident(p, nodes, keys, w)
				if err != nil {
					t.Fatal(err)
				}
				lwe.FlushInto(p, out, root)
				if !matchesPack(out) {
					t.Errorf("workers=%d: PackResident differs from ref.PackCiphertexts", w)
				}
			}

			for _, s := range shapes {
				for _, w := range workers {
					ev := &Evaluator{P: p, Keys: keys, Workers: w}
					at := fmt.Sprintf("%s %dx%d workers=%d", s.name, s.rows, s.cols, w)
					check := func(entry string, tr *ref.Trace, packed []*rlwe.Ciphertext) {
						t.Helper()
						if err := tr.MatchesResult(p, packed); err != nil {
							t.Errorf("%s %s: %v", at, entry, err)
						}
					}
					res, err := ev.MatVec(s.A, s.ctV[0])
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					check("MatVec", s.tr[0], res.Packed)
					pm, err := ev.Prepare(s.A)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					one := pm.NewResult()
					if err := pm.ApplyInto(one, s.ctV[0]); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					check("ApplyInto", s.tr[0], one.Packed)
					batch := []*Result{pm.NewResult(), pm.NewResult()}
					if err := pm.ApplyBatchInto(batch, [][]*rlwe.Ciphertext{s.ctV[0], s.ctV[1]}); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					check("ApplyBatchInto[0]", s.tr[0], batch[0].Packed)
					check("ApplyBatchInto[1]", s.tr[1], batch[1].Packed)
					// Tiles listed last to first, written back in tile order.
					nt := pm.Tiles()
					tiles := make([]int, nt)
					rev := make([]*rlwe.Ciphertext, nt)
					for j := range tiles {
						tiles[j] = nt - 1 - j
						rev[j] = pm.NewResult().Packed[tiles[j]]
					}
					if err := pm.ApplyTiles(rev, tiles, s.ctV[1], nil); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					ordered := make([]*rlwe.Ciphertext, nt)
					for j, ti := range tiles {
						ordered[ti] = rev[j]
					}
					check("ApplyTiles", s.tr[1], ordered)
				}
			}
		})
	}
}
