// Command chamcluster runs the sharded serving tier: a wire-compatible
// gateway that scatters each apply's row tiles across chamserve shard
// nodes along a consistent-hash ring and gathers the packed ciphertexts
// back into the exact single-node result. Unmodified clients point at
// the gateway and see one big server.
//
// Two ways to get shards:
//
//	chamcluster -addr :7320 -nodes host1:7316,host2:7316
//
// fronts externally managed chamserve processes (plain chamserve: the
// gateway broadcasts keys and matrices, and an eager shard prepares every
// tile at registration, so it can take over any tile), or
//
//	chamcluster -addr :7320 -spawn 4
//
// spawns 4 in-process shard nodes on loopback — the one-binary way to
// run a whole cluster for demos and benchmarks. Only these spawned shards
// are lazy: they prepare a tile on its first use. SIGINT/SIGTERM drains
// the gateway first, then the spawned shards.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cham/internal/bfv"
	"cham/internal/cluster"
	"cham/internal/obs/metricshttp"
	"cham/internal/obs/trace"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/vec"
)

// parseLogLevel maps the -log-level flag onto a stderr slog handler.
func parseLogLevel(s string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", s)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

func main() {
	var (
		addr        = flag.String("addr", ":7320", "TCP address the gateway serves the wire protocol on")
		nodesFlag   = flag.String("nodes", "", "comma-separated chamserve shard addresses (mutually exclusive with -spawn)")
		spawn       = flag.Int("spawn", 0, "spawn this many in-process shard nodes on loopback")
		metricsAddr = flag.String("metrics", "", "serve /metrics, /debug/pprof, and /debug/traces on this address")
		ringN       = flag.Int("n", 4096, "ring degree (power of two; must match clients and shards)")
		replicas    = flag.Int("replicas", 2, "hedged attempts per tile group (owner + fallbacks)")
		hedge       = flag.Duration("hedge", 50*time.Millisecond, "floor of the straggler hedge: no shard leg hedges sooner (the trigger adapts to observed leg latency and is budgeted)")
		engines     = flag.Int("card-engines", 2, "simulated card engines per spawned shard (0 disables the card)")
		jobDur      = flag.Duration("card-job-dur", 200*time.Microsecond, "per-job latency of each spawned shard's card")
		drainWait   = flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		traceSample = flag.Float64("trace-sample", 0, "probability [0,1] that an apply arriving untraced is sampled at the gateway")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	)
	flag.Parse()
	log, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chamcluster:", err)
		os.Exit(1)
	}
	trace.SetSampleRate(*traceSample)
	if err := run(*addr, *nodesFlag, *metricsAddr, *spawn, *ringN, *replicas,
		*hedge, *engines, *jobDur, *drainWait, log); err != nil {
		fmt.Fprintln(os.Stderr, "chamcluster:", err)
		os.Exit(1)
	}
}

func run(addr, nodesFlag, metricsAddr string, spawn, ringN, replicas int,
	hedge time.Duration, engines int, jobDur, drainWait time.Duration,
	log *slog.Logger) error {
	p, err := bfv.NewChamParams(ringN)
	if err != nil {
		return err
	}
	if (nodesFlag == "") == (spawn == 0) {
		return fmt.Errorf("exactly one of -nodes or -spawn is required")
	}
	if metricsAddr != "" {
		ma, err := metricshttp.Serve(metricsAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "chamcluster: metrics server:", err)
		})
		if err != nil {
			return err
		}
		fmt.Printf("metrics: serving /metrics and /debug/pprof on http://%s\n", ma)
	}

	var nodes []string
	var shards []*server.Server
	if spawn > 0 {
		for i := 0; i < spawn; i++ {
			cfg := server.Config{Params: p, LazyTiles: true, Log: log.With("shard", i)}
			if engines > 0 {
				card, err := rt.New(rt.NewDevice(engines, jobDur, rt.FaultPlan{}))
				if err != nil {
					return err
				}
				cfg.Card = card
			}
			s, err := server.New(cfg)
			if err != nil {
				return err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go s.Serve(ln)
			shards = append(shards, s)
			nodes = append(nodes, ln.Addr().String())
			fmt.Printf("chamcluster: shard %d on %s\n", i, ln.Addr())
		}
	} else {
		for _, n := range strings.Split(nodesFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
	}

	co, err := cluster.New(cluster.Config{
		Params:     p,
		Nodes:      nodes,
		Replicas:   replicas,
		HedgeDelay: hedge,
		Log:        log,
	})
	if err != nil {
		return err
	}
	defer co.Close()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Coordinator: co})
	if err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sig
		fmt.Println("chamcluster: draining gateway...")
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		err := gw.Shutdown(ctx)
		for i, s := range shards {
			if serr := s.Shutdown(ctx); serr != nil && err == nil {
				err = fmt.Errorf("shard %d: %w", i, serr)
			}
		}
		done <- err
	}()

	fmt.Printf("chamcluster: N=%d shards=%d replicas=%d hedge-floor=%v kernels=%s, gateway on %s\n",
		ringN, len(nodes), replicas, hedge, vec.Impl(), addr)
	if err := gw.ListenAndServe(addr); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("chamcluster: drained cleanly")
	return nil
}
