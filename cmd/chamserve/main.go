// Command chamserve runs the networked HMVP service: clients register
// cleartext matrices (prepared once, named by content hash) and stream
// encrypted vectors at them over the wire protocol; the server coalesces
// concurrent requests into batches, mirrors each batch as one job on a
// simulated CHAM card, and applies admission control so overload turns
// into typed rejections rather than collapse.
//
// Quickstart:
//
//	chamserve -addr :7316 -metrics :9090
//
// then point internal/client (or examples/serve) at :7316. SIGINT/SIGTERM
// drains gracefully: in-flight requests finish, new ones are rejected
// with the retryable "draining" code.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cham/internal/bfv"
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
		addr        = flag.String("addr", ":7316", "TCP address to serve the wire protocol on")
		metricsAddr = flag.String("metrics", "", "serve /metrics, /debug/pprof, and /debug/traces on this address (enables telemetry)")
		ringN       = flag.Int("n", 4096, "ring degree (power of two; must match clients)")
		maxBatch    = flag.Int("max-batch", 16, "max coalesced requests per batch (1 disables batching)")
		linger      = flag.Duration("linger", 2*time.Millisecond, "how long a batch waits to fill before dispatch")
		queueDepth  = flag.Int("queue-depth", 256, "admission queue bound; beyond it requests are rejected as overloaded")
		workers     = flag.Int("workers", 0, "batch executor goroutines (0 = GOMAXPROCS)")
		evalWorkers = flag.Int("eval-workers", 0, "per-apply evaluator parallelism (0 = GOMAXPROCS)")
		deadline    = flag.Duration("deadline", 5*time.Second, "default per-request deadline (queue wait + service)")
		engines     = flag.Int("card-engines", 2, "simulated accelerator engines behind the batcher (0 disables the card mirror)")
		jobDur      = flag.Duration("card-job-dur", 200*time.Microsecond, "simulated per-job latency of the card")
		drainWait   = flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
		traceSample = flag.Float64("trace-sample", 0, "probability [0,1] that a request this node roots is traced end-to-end")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	)
	flag.Parse()
	log, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chamserve:", err)
		os.Exit(1)
	}
	trace.SetSampleRate(*traceSample)
	if err := run(*addr, *metricsAddr, *ringN, *maxBatch, *linger, *queueDepth,
		*workers, *evalWorkers, *deadline, *engines, *jobDur, *drainWait, log); err != nil {
		fmt.Fprintln(os.Stderr, "chamserve:", err)
		os.Exit(1)
	}
}

func run(addr, metricsAddr string, ringN, maxBatch int, linger time.Duration,
	queueDepth, workers, evalWorkers int, deadline time.Duration,
	engines int, jobDur, drainWait time.Duration, log *slog.Logger) error {
	p, err := bfv.NewChamParams(ringN)
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		ma, err := metricshttp.Serve(metricsAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "chamserve: metrics server:", err)
		})
		if err != nil {
			return err
		}
		fmt.Printf("metrics: serving /metrics and /debug/pprof on http://%s\n", ma)
	}
	cfg := server.Config{
		Params:          p,
		MaxBatch:        maxBatch,
		Linger:          linger,
		QueueDepth:      queueDepth,
		DefaultDeadline: deadline,
		Workers:         workers,
		EvalWorkers:     evalWorkers,
		Log:             log,
	}
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

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sig
		fmt.Println("chamserve: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	fmt.Printf("chamserve: N=%d max-batch=%d queue=%d engines=%d kernels=%s, serving on %s\n",
		ringN, maxBatch, queueDepth, engines, vec.Impl(), addr)
	if err := s.ListenAndServe(addr); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("chamserve: drained cleanly")
	return nil
}
