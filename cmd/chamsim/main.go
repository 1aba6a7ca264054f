// Command chamsim regenerates the CHAM paper's evaluation tables and
// figures from the simulators and calibrated device models.
//
// Usage:
//
//	chamsim             list the available experiments
//	chamsim all         run every experiment
//	chamsim verify      run the resource-model calibration checks
//	chamsim hmvp m cols [N]  run a self-verifying HMVP and time it
//	chamsim <id> ...    run specific experiments (e.g. table2 fig6)
//
// The -workers flag bounds the evaluator's parallelism (row dot products
// and packing-tree merges); 0 means GOMAXPROCS. Results are bit-identical
// for any worker count.
//
// With -metrics ADDR the process enables telemetry and serves Prometheus
// text on /metrics plus the pprof handlers on /debug/pprof/; -hold keeps
// the endpoint up after the workload, -repeat N feeds the histograms
// with N applies (watch live with chamtop).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"cham"
	"cham/internal/core"
	"cham/internal/fpga"
	"cham/internal/noise"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/rlwe"
	"cham/internal/vec"
)

var workers = flag.Int("workers", 0, "evaluator worker goroutines (0 = GOMAXPROCS)")

// tracedApply runs one prepared apply under a root span. When sampling
// selects the request, a StageRecorder bridges the kernel stage timings
// into the trace so /debug/traces shows apply → kernel stage spans.
func tracedApply(pm *core.PreparedMatrix, res *core.Result, ctV []*rlwe.Ciphertext) error {
	tc, sp := trace.Root("chamsim", "apply")
	rec := trace.NewStageRecorder(tc)
	var sink obs.StageSink
	if rec != nil {
		sink = rec
	}
	err := pm.ApplyTiles(res.Packed, nil, ctV, sink)
	rec.Emit("kernel")
	sp.EndErr(err)
	return err
}

func verify() int {
	checks := map[string]func() error{
		"Table II calibration":  fpga.CheckTable2Calibration,
		"Table III calibration": fpga.CheckTable3Calibration,
	}
	code := 0
	for name, fn := range checks {
		if err := fn(); err != nil {
			fmt.Printf("FAIL %s: %v\n", name, err)
			code = 1
		} else {
			fmt.Printf("ok   %s\n", name)
		}
	}
	return code
}

// runHMVP executes a self-verifying homomorphic matrix-vector product at
// the requested shape and prints wall time next to the accelerator
// model's prediction.
func runHMVP(args []string) int {
	m, cols, ringN := 8, 1024, 1024
	parse := func(i int, dst *int) bool {
		if len(args) > i {
			v, err := strconv.Atoi(args[i])
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "chamsim: bad argument %q\n", args[i])
				return false
			}
			*dst = v
		}
		return true
	}
	if !parse(0, &m) || !parse(1, &cols) || !parse(2, &ringN) {
		return 1
	}
	params, err := cham.NewParams(ringN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chamsim:", err)
		return 1
	}
	rng := cham.NewRNG(42)
	sk := params.KeyGen(rng)
	rows := m
	if rows > ringN {
		rows = ringN
	}
	ev, err := cham.NewEvaluator(params, rng, sk, rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chamsim:", err)
		return 1
	}
	ev.Workers = *workers
	matrix := make([][]uint64, m)
	for i := range matrix {
		matrix[i] = make([]uint64, cols)
		for j := range matrix[i] {
			matrix[i][j] = rng.Uint64() % params.T.Q
		}
	}
	vector := make([]uint64, cols)
	for j := range vector {
		vector[j] = rng.Uint64() % params.T.Q
	}
	ctV := cham.EncryptVector(params, rng, sk, vector)

	// With -metrics, mirror each apply onto a simulated card (per-engine
	// busy fractions, RAS counters) and publish the noise-budget gauges.
	var mirror *mirrorRuntime
	if *metricsAddr != "" {
		mPad := 1
		for mPad < rows {
			mPad <<= 1
		}
		if mirror, err = newMirrorRuntime(m, cols, mPad); err != nil {
			fmt.Fprintln(os.Stderr, "chamsim:", err)
			return 1
		}
		noise.New(params).PublishBudget(mPad)
	}

	start := time.Now()
	res, err := ev.MatVec(matrix, ctV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chamsim:", err)
		return 1
	}
	elapsed := time.Since(start)
	if mirror != nil {
		mirror.step()
	}

	// Same product through the prepared-matrix path: the per-matrix
	// encode/lift/NTT work is hoisted into Prepare, Apply pays only the
	// per-vector stages.
	prepStart := time.Now()
	pm, err := ev.Prepare(matrix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chamsim:", err)
		return 1
	}
	prepTime := time.Since(prepStart)
	applyStart := time.Now()
	res2 := pm.NewResult()
	if err := tracedApply(pm, res2, ctV); err != nil {
		fmt.Fprintln(os.Stderr, "chamsim:", err)
		return 1
	}
	applyTime := time.Since(applyStart)
	if mirror != nil {
		mirror.step()
	}
	// Extra applies keep the stage histograms and the endpoint busy.
	for extra := 1; extra < *repeat; extra++ {
		if err := tracedApply(pm, res2, ctV); err != nil {
			fmt.Fprintln(os.Stderr, "chamsim:", err)
			return 1
		}
		if mirror != nil {
			mirror.step()
		}
	}

	got := cham.DecryptResult(params, res, sk)
	got2 := cham.DecryptResult(params, res2, sk)
	want := cham.PlainMatVec(params, matrix, vector)
	for i := range want {
		if got[i] != want[i] || got2[i] != want[i] {
			fmt.Fprintf(os.Stderr, "chamsim: VERIFICATION FAILED at row %d\n", i)
			return 1
		}
	}
	if *metricsAddr != "" {
		// The simulator holds the secret key, so the measured output
		// noise gauge can be published alongside the analytic ones.
		est := noise.New(params)
		measured := 0.0
		for ti, ct := range res2.Packed {
			lo, hi := ti*res2.N, (ti+1)*res2.N
			if hi > m {
				hi = m
			}
			if b := est.MeasureTile(ct, sk, want[lo:hi], res2.TileRows(ti)); b > measured {
				measured = b
			}
		}
		noise.PublishMeasured(measured)
	}
	acc := cham.DefaultAccelerator()
	fmt.Printf("HMVP %dx%d at N=%d: verified correct\n", m, cols, ringN)
	fmt.Printf("  software (this host):      %v (kernels=%s)\n", elapsed, vec.Impl())
	fmt.Printf("  prepared matrix:           %v prepare + %v apply\n", prepTime, applyTime)
	if ringN == acc.N {
		sim := acc.SimulateHMVP(m, cols)
		fmt.Printf("  CHAM accelerator (model):  %.3f ms (%d cycles, %d pack reductions)\n",
			1e3*sim.Seconds(acc.FreqMHz), sim.TotalCycles, sim.Merges)
	} else {
		fmt.Printf("  (accelerator model applies at N=%d)\n", acc.N)
	}
	return 0
}

func main() {
	flag.Parse()
	args := flag.Args()
	if err := startMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(args) == 1 && args[0] == "verify" {
		os.Exit(verify())
	}
	if len(args) >= 1 && args[0] == "hmvp" {
		code := runHMVP(args[1:])
		holdIfRequested()
		os.Exit(code)
	}
	if len(args) == 0 {
		fmt.Println("chamsim — CHAM (DAC'23) experiment reproduction")
		fmt.Println("\nusage: chamsim <experiment-id ...|all>")
		fmt.Println("\navailable experiments:")
		for _, id := range cham.Experiments() {
			out, _ := cham.RunExperiment(id)
			// First line of the rendered output carries the title.
			fmt.Printf("  %-8s %s\n", id, firstLine(out))
		}
		return
	}
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = cham.Experiments()
	}
	code := 0
	for _, id := range ids {
		out, err := cham.RunExperiment(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chamsim:", err)
			code = 1
			continue
		}
		fmt.Println(out)
	}
	holdIfRequested()
	os.Exit(code)
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
