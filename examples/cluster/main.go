// Cluster: the sharded-serving quickstart. Starts two chamserve shard
// nodes in lazy-tile mode plus a cluster gateway on loopback, then acts
// as an ordinary tenant against the gateway: the client code is exactly
// the single-server quickstart — the scatter/gather across shards is
// invisible, and the gathered results are bit-for-bit what one big
// server would return. Finishes with a graceful drain of the whole tier
// and a count gate on the hedging policy's budget: however slow the host,
// extra shard attempts must stay within 2 + 5 % of shard requests.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"cham"
	"cham/internal/client"
	"cham/internal/cluster"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/server"
)

func main() {
	obs.SetEnabled(true) // telemetry on: the count gate at the end reads cham_cluster_* from the registry
	params := cham.MustParams(256)

	// --- cluster side: normally `chamcluster -addr :7320 -spawn 2`.
	var shards []*server.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{Params: params, LazyTiles: true})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go s.Serve(ln)
		shards = append(shards, s)
		addrs = append(addrs, ln.Addr().String())
	}
	co, err := cluster.New(cluster.Config{Params: params, Nodes: addrs})
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Coordinator: co})
	if err != nil {
		log.Fatal(err)
	}
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go gw.Serve(gln)
	fmt.Printf("cluster: 2 shards behind gateway %s\n", gln.Addr())

	// --- client side: unchanged from the single-server quickstart.
	rng := cham.NewRNG(7)
	sk := params.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(params, rng, sk, params.R.N)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := client.Dial(client.Config{Addr: gln.Addr().String(), Params: params})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	hash, err := cl.SetupKeys(keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed packing keys %x... on every shard\n", hash[:8])

	// A 1024-row matrix spans 4 row tiles at N=256, so the ring splits it
	// across both shards.
	A := make([][]uint64, 1024)
	for i := range A {
		A[i] = make([]uint64, 256)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % params.T.Q
		}
	}
	handle, err := cl.RegisterMatrix(A)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %dx%d matrix as %x... (%d tiles across the ring)\n",
		handle.Rows, handle.Cols, handle.ID[:8], handle.Tiles)

	// Enough rounds to take every shard past the policy's warm-up, where
	// the hedge threshold is still the bare floor.
	for round := 0; round < 12; round++ {
		v := make([]uint64, 256)
		for j := range v {
			v[j] = rng.Uint64() % params.T.Q
		}
		res, err := cl.Apply(handle.ID, cham.EncryptVector(params, rng, sk, v))
		if err != nil {
			log.Fatal(err)
		}
		got := cham.DecryptResult(params,
			&cham.Result{M: int(res.M), N: int(res.N), Packed: res.Packed}, sk)
		want := cham.PlainMatVec(params, A, v)
		for i := range want {
			if got[i] != want[i] {
				log.Fatalf("round %d row %d: got %d want %d", round, i, got[i], want[i])
			}
		}
		fmt.Printf("round %d: scattered A·v gathers to the cleartext product (%d rows)\n",
			round, len(got))
	}

	// The budget invariant as a count, not a time: a hedge is allowed for
	// the two-token burst plus 5 % of what the shards were asked. Every
	// product above was already checked against the cleartext.
	hedges := obs.GetCounter("cham_cluster_hedges_total", "").Value()
	requests := obs.GetCounter("cham_cluster_shard_requests_total", "", "outcome", "ok").Value() +
		obs.GetCounter("cham_cluster_shard_requests_total", "", "outcome", "error").Value()
	if float64(hedges) > 2+0.05*float64(requests) {
		log.Fatalf("hedge budget broken: %d hedges over %d shard requests", hedges, requests)
	}
	fmt.Printf("hedges %d over %d shard requests: within the 2 + 5%% budget\n", hedges, requests)

	// Drain the gateway first (clients see the retryable draining code),
	// then the shards.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	for _, s := range shards {
		if err := s.Shutdown(ctx); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("cluster drained cleanly")
}
