package main

// Telemetry endpoint: -metrics serves the obs registry in Prometheus
// text format plus the stdlib pprof handlers, so a running experiment
// can be watched live (chamtop) or profiled (go tool pprof).

import (
	"context"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"os/signal"
	"time"

	"cham/internal/obs/metricshttp"
	"cham/internal/obs/trace"
	rt "cham/internal/runtime"
)

var (
	metricsAddr = flag.String("metrics", "",
		"serve /metrics, /debug/pprof, and /debug/traces on this address (e.g. :9090)")
	hold = flag.Bool("hold", false,
		"with -metrics, keep serving after the command finishes until interrupted")
	repeat = flag.Int("repeat", 1,
		"run the hmvp applies this many times (feeds the latency histograms)")
	traceSample = flag.Float64("trace-sample", 0,
		"probability [0,1] that an hmvp apply is traced (spans served at /debug/traces)")
)

// startMetrics sets the trace sample rate and launches the HTTP endpoint
// when -metrics is set. Returns immediately; the server runs for the life of
// the process.
func startMetrics() error {
	trace.SetSampleRate(*traceSample)
	if *metricsAddr == "" {
		return nil
	}
	addr, err := metricshttp.Serve(*metricsAddr, func(err error) {
		fmt.Fprintln(os.Stderr, "chamsim: metrics server:", err)
	})
	if err != nil {
		return fmt.Errorf("chamsim: metrics listener: %w", err)
	}
	fmt.Printf("metrics: serving /metrics and /debug/pprof on http://%s\n", addr)
	return nil
}

// holdIfRequested blocks until SIGINT when -metrics -hold are both set,
// keeping the endpoint scrapeable after the workload completes.
func holdIfRequested() {
	if *metricsAddr == "" || !*hold {
		return
	}
	fmt.Println("metrics: holding endpoint open; interrupt to exit")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

// mirrorRuntime models the driver-side view of the software applies: a
// simulated two-engine card executes one HMVP descriptor per apply, with
// a mild fault plan so the RAS counters (replays, recovered writes)
// exercise their real paths. Health checks feed the temperature,
// liveness and heartbeat-age gauges.
type mirrorRuntime struct {
	rt *rt.Runtime
	d  rt.HMVPDescriptor
}

func newMirrorRuntime(m, cols, mPad int) (*mirrorRuntime, error) {
	dev := rt.NewDevice(2, 200*time.Microsecond, rt.FaultPlan{
		CorruptWriteEvery: 37,
		FailJobEvery:      23,
	})
	r, err := rt.New(dev)
	if err != nil {
		return nil, err
	}
	return &mirrorRuntime{
		rt: r,
		d: rt.HMVPDescriptor{
			Rows: uint32(m), Cols: uint32(cols),
			MatrixAddr: 0x1000_0000, VectorAddr: 0x2000_0000,
			KeyAddr: 0x3000_0000, ResultAddr: 0x4000_0000,
			PackRowsLog2: uint8(bits.TrailingZeros(uint(mPad))),
		},
	}, nil
}

// step mirrors one software apply onto the card and samples health.
func (mr *mirrorRuntime) step() {
	if err := mr.rt.RunHMVPCtx(context.Background(), &mr.d); err != nil {
		fmt.Fprintln(os.Stderr, "chamsim: runtime mirror:", err)
	}
	mr.rt.HealthCheck()
}
