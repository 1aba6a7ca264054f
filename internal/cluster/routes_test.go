package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cham/internal/chamnp"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/ref"
	"cham/internal/rlwe"
	"cham/internal/server"
	"cham/internal/testutil"
	"cham/internal/vec"
)

// TestEveryRouteSameBytes: one request, every route, same bytes. The same
// matrix (three row tiles, the last one ragged, two column chunks) and the
// same encrypted vector go through every way the repository has of reaching
// the one apply path — the in-process entry points, the chamnp backend, a
// server, a lazy-tile shard asked tile by tile, a gateway over two shards —
// and every tile ciphertext must encode to the same bytes as the plain
// ApplyInto, which itself must equal the big.Int reference pipeline and
// decrypt to the cleartext product. Each ring degree runs at workers
// {1, NumCPU}, with the host's vector kernels and with them forced off.
func TestEveryRouteSameBytes(t *testing.T) {
	workerSet := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerSet = append(workerSet, n)
	}
	for _, n := range []int{32, 256} {
		p := testParams(t, n)
		rng := testutil.NewRand(t)
		sk := p.KeyGen(rng)
		keys, err := lwe.GenPackingKeys(p, rng, sk, n)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := 2*n+5, n+7
		A := testutil.Matrix(rng, rows, cols, p.T.Q)
		v := testutil.Vector(rng, cols, p.T.Q)
		ctV := core.EncryptVector(p, rng, sk, v)
		other := core.EncryptVector(p, rng, sk, testutil.Vector(rng, cols, p.T.Q))
		// The reference pipeline is big.Int schoolbook arithmetic: all three
		// tiles at N=32, only the ragged one at N=256, where the full tiles
		// would take minutes under the race detector (tiles are independent,
		// so the reference of A's last rows is the reference of its last
		// tile; the decryption below still covers every row).
		anchor := 0
		if n > 32 {
			anchor = 2
		}
		tr, err := ref.HMVP(p, A[anchor*n:], ctV, ref.Keys(p, keys))
		if err != nil {
			t.Fatal(err)
		}
		plain := core.PlainMatVec(p, A, v)

		for _, generic := range []bool{false, true} {
			for _, workers := range workerSet {
				t.Run(fmt.Sprintf("N=%d/generic=%v/workers=%d", n, generic, workers), func(t *testing.T) {
					if generic {
						vec.ForceGeneric(t)
					}
					ev, err := core.NewEvaluatorFromKeys(p, keys)
					if err != nil {
						t.Fatal(err)
					}
					ev.Workers = workers
					pm, err := ev.Prepare(A)
					if err != nil {
						t.Fatal(err)
					}

					// The reference route: ApplyInto, anchored to internal/ref and
					// to the cleartext product.
					want := pm.NewResult()
					if err := pm.ApplyInto(want, ctV); err != nil {
						t.Fatal(err)
					}
					if len(want.Packed) != 3 {
						t.Fatalf("matrix spans %d tiles, the routes below assume 3", len(want.Packed))
					}
					if err := tr.MatchesResult(p, want.Packed[anchor:]); err != nil {
						t.Fatalf("ApplyInto disagrees with the reference pipeline: %v", err)
					}
					for i, got := range core.DecryptResult(p, want, sk) {
						if got != plain[i] {
							t.Fatalf("row %d decrypts to %d, want %d", i, got, plain[i])
						}
					}
					// same requires out[k] to be tile tiles[k] of the reference:
					// the same residue words in the same domain.
					same := func(route string, tiles []int, out []*rlwe.Ciphertext) {
						t.Helper()
						if len(out) != len(tiles) {
							t.Fatalf("%s: %d ciphertexts for %d tiles", route, len(out), len(tiles))
						}
						for k, ti := range tiles {
							if !sameCiphertext(out[k], want.Packed[ti]) {
								t.Errorf("%s: tile %d differs from ApplyInto", route, ti)
							}
						}
					}
					all := []int{0, 1, 2}
					fresh := func(k int) []*rlwe.Ciphertext { return pm.NewResult().Packed[:k] }

					batch := []*core.Result{pm.NewResult(), pm.NewResult(), pm.NewResult()}
					if err := pm.ApplyBatchInto(batch, [][]*rlwe.Ciphertext{ctV, other, ctV}); err != nil {
						t.Fatal(err)
					}
					same("ApplyBatchInto position 0", all, batch[0].Packed)
					same("ApplyBatchInto position 2", all, batch[2].Packed)

					out := fresh(3)
					if err := pm.ApplyTiles(out, nil, ctV, nil); err != nil {
						t.Fatal(err)
					}
					same("ApplyTiles(nil)", all, out)
					for _, tiles := range [][]int{{0, 2}, {1}} {
						out := fresh(len(tiles))
						if err := pm.ApplyTiles(out, tiles, ctV, nil); err != nil {
							t.Fatal(err)
						}
						same(fmt.Sprintf("ApplyTiles(%v)", tiles), tiles, out)
					}

					local := chamnp.Local(pm)
					res := local.NewResult()
					if err := local.ApplyBatchInto([]*core.Result{res}, [][]*rlwe.Ciphertext{ctV}); err != nil {
						t.Fatal(err)
					}
					same("chamnp.Local", all, res.Packed)

					// The wire routes, each registering through its own door.
					register := func(addr string) (*client.Client, [32]byte) {
						t.Helper()
						cl, err := client.Dial(client.Config{Addr: addr, Params: p})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { cl.Close() })
						if _, err := cl.SetupKeys(keys); err != nil {
							t.Fatal(err)
						}
						h, err := cl.RegisterMatrix(A)
						if err != nil {
							t.Fatal(err)
						}
						return cl, h.ID
					}
					nodeCfg := func(lazy bool) func(*server.Config) {
						return func(c *server.Config) {
							c.LazyTiles, c.EvalWorkers = lazy, workers
						}
					}
					// Every node is drained, not killed, before the subtest ends: the
					// next one flips the kernel switch, which no kernel may still be
					// reading.
					start := func(lazy bool) *node {
						nd := startNode(t, p, nodeCfg(lazy))
						t.Cleanup(func() {
							ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
							defer cancel()
							if err := nd.srv.Shutdown(ctx); err != nil {
								t.Errorf("draining a node: %v", err)
							}
						})
						return nd
					}

					cl, id := register(start(false).addr)
					full, err := cl.Apply(id, ctV)
					if err != nil {
						t.Fatal(err)
					}
					same("client → server Apply", all, full.Packed)

					cl, id = register(start(true).addr)
					tiled, err := cl.TileApply(id, []uint32{0, 1, 2}, ctV)
					if err != nil {
						t.Fatal(err)
					}
					same("client → lazy-tile server TileApply", all, tiled.Packed)

					// No hedging: a cancelled leg's kernel would run on unobserved.
					co, err := New(Config{Params: p, Nodes: []string{start(true).addr, start(true).addr}, HedgeDelay: time.Minute})
					if err != nil {
						t.Fatal(err)
					}
					defer co.Close()
					gw, err := NewGateway(GatewayConfig{Coordinator: co})
					if err != nil {
						t.Fatal(err)
					}
					fx := &doorFixture{p: p, keys: keys, A: A}
					d := fx.open(t, &door{shutdown: gw.Shutdown}, &gw.FrontEnd)
					defer d.close(t)
					gathered, err := fx.dial(t, d).Apply(d.handle.ID, ctV)
					if err != nil {
						t.Fatal(err)
					}
					same("client → gateway → 2 shards", all, gathered.Packed)
				})
			}
		}
	}
}
