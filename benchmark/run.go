package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one invocation under the driver's contract: one workload,
// one seed, one measured window, traced or not.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a run prints as its last line of output.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one of the four fixed traffic shapes. setup builds every
// input from the seed (keys, matrices, expected products, servers); op
// runs one verified operation — encrypt, product, decrypt, compare — on a
// caller lane and returns the instant the decrypted output was in hand,
// so the untimed compare stays out of the latency.
type workload interface {
	setup() error
	teardown()
	op(t *opTrace, lane, i int) (time.Time, error)
	info() workloadInfo
	// probes times the workload's layers in isolation, on its own ring
	// degree and shape, into the per-layer metric set.
	probes(pl perLayer, budget time.Duration) error
	// stages reports how long parts of the last set-up took (ms), keyed by
	// the per-layer metric each is reported as.
	stages() map[string]float64
}

// workloadInfo is what the runner needs to drive and score a workload.
type workloadInfo struct {
	rowsPerOp int     // matrix rows x vectors one verified op produces
	sloMs     float64 // latency limit an op must meet to count for slo_attain
	callers   int     // concurrent callers (closed loop) or in-flight cap (open loop)
	procs     int     // GOMAXPROCS the run is held to; 0 leaves the runtime's default
	openRate  float64 // requests per second; 0 means closed loop
}

// opResult is one attempted operation.
type opResult struct {
	latMs  float64 // closed loop: call to output; open loop: due time to output
	waitMs float64 // open loop: due time to send (in-flight cap plus generator lag)
	lagMs  float64 // open loop: how late the generator itself woke
	refMs  float64 // the host-speed reference the lane ran right after it (see ref.go)
	err    error
}

// window is one measured interval.
type window struct {
	ops     []opResult
	wallS   float64
	cpuS    float64
	mallocs uint64
	lanes   int  // concurrent callers or in-flight cap
	open    bool // open loop: arrivals on a schedule
}

// refTimings returns the host-speed reference timing taken after each op.
func (w *window) refTimings() []float64 {
	out := make([]float64, len(w.ops))
	for i, o := range w.ops {
		out[i] = o.refMs
	}
	return out
}

// netOfRef returns the window's wall and CPU seconds without the
// reference's own: each reference call is single-threaded and CPU-bound,
// so it costs its duration in CPU, and in a closed loop it keeps its lane
// from the next op for that long (an open loop's arrivals do not wait).
func (w *window) netOfRef() (wallS, cpuS float64) {
	refS := 0.0
	for _, o := range w.ops {
		refS += o.refMs / 1000
	}
	wallS, cpuS = w.wallS, w.cpuS-refS
	if !w.open {
		wallS -= refS / float64(w.lanes)
	}
	return wallS, cpuS
}

func (w *window) verifiedLatencies() []float64 {
	var out []float64
	for _, o := range w.ops {
		if o.err == nil {
			out = append(out, o.latMs)
		}
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads the process's resident high-water mark (VmHWM). It is a
// per-layer metric, not an end-to-end one: on hmvp_design_point it differs
// by 25 % between runs of the same code (a sync.Pool miss after the caller
// changes P allocates a second 50 MB tree scratch), which no bound allowed
// here can hold.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// measure runs one window of the workload's own loop kind.
func measure(w workload, seed int64, seconds float64, rec *recorder) window {
	in := w.info()
	runtime.GC()
	m0, c0, t0 := mallocCount(), cpuSeconds(), time.Now()
	var ops []opResult
	if in.openRate > 0 {
		ops = openLoop(w, arrivalSchedule(seed, in.openRate, seconds), in.callers, rec)
	} else {
		ops = closedLoop(w, in.callers, time.Duration(seconds*float64(time.Second)), rec)
	}
	wall := time.Since(t0).Seconds()
	return window{ops: ops, wallS: wall, cpuS: cpuSeconds() - c0, mallocs: mallocCount() - m0, lanes: in.callers, open: in.openRate > 0}
}

// closedLoop has each caller issue its next operation as soon as the
// previous one returned (and the lane has timed the host-speed reference),
// until the window closes; operations in flight at the deadline complete
// and count.
func closedLoop(w workload, callers int, d time.Duration, rec *recorder) []opResult {
	perLane := make([][]opResult, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for lane := 0; lane < callers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			ref := newHostRef()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				t := rec.startOp(lane, i)
				start := time.Now()
				end, err := w.op(&t, lane, i)
				t.finish()
				perLane[lane] = append(perLane[lane], opResult{latMs: ms(end.Sub(start)), refMs: ms(ref.run()), err: err})
			}
		}(lane)
	}
	wg.Wait()
	var ops []opResult
	for _, l := range perLane {
		ops = append(ops, l...)
	}
	return ops
}

// openLoop sends on the schedule whatever the system's state, at most
// inflight operations at once, and times each from when it was due: a
// stall delays the requests behind it and that delay is theirs to report.
func openLoop(w workload, sched []time.Duration, inflight int, rec *recorder) []opResult {
	ops := make([]opResult, len(sched))
	lanes := make(chan int, inflight) // free caller lanes; doubles as the in-flight cap
	refs := make([]*hostRef, inflight)
	for l := 0; l < inflight; l++ {
		lanes <- l
		refs[l] = newHostRef()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		var lag time.Duration
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			lag = time.Since(due) // a backlog is not the generator's lateness; an overslept timer is
		}
		lane := <-lanes
		wait := time.Since(due)
		wg.Add(1)
		go func(i, lane int) {
			defer wg.Done()
			t := rec.startOp(lane, i)
			end, err := w.op(&t, lane, i)
			t.finish()
			ops[i] = opResult{latMs: ms(end.Sub(due)), waitMs: ms(wait), lagMs: ms(lag), refMs: ms(refs[lane].run()), err: err}
			lanes <- lane
		}(i, lane)
	}
	wg.Wait()
	return ops
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOne executes one contract run and returns its result. Progress and
// the human-readable metric table go to log.
func runOne(cfg runConfig, spec *benchSpec, log io.Writer) (*runResult, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if n := w.info().procs; n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	// Set-up runs several times so setup_s is a median, not one draw; the
	// traced run reports no setup_s and sets up once. Each set-up is stated
	// at the reference host speed of the moments around it.
	setups := 3
	if cfg.trace || cfg.smoke {
		setups = 1
	}
	ref := newHostRef()
	refAround := func(refMs []float64) []float64 {
		for k := 0; k < 15; k++ {
			refMs = append(refMs, ms(ref.run()))
		}
		return refMs
	}
	var setupS []float64
	for k := 0; k < setups; k++ {
		if k > 0 {
			w.teardown()
			runtime.GC()
		}
		refMs := refAround(nil)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		raw := time.Since(t0).Seconds()
		f := hostFactor(refAround(refMs))
		fmt.Fprintf(log, "set-up %d: %.4f s as measured, host factor %.4f\n", k, raw, f)
		setupS = append(setupS, raw*f)
	}
	defer w.teardown()
	in := w.info()

	warm := math.Min(3, cfg.seconds/4)
	closedLoop(w, in.callers, time.Duration(warm*float64(time.Second)), nil)

	res := &runResult{Metrics: map[string]metric{}}
	if cfg.trace {
		err = tracedRun(cfg, spec, w, res)
	} else {
		win := measure(w, cfg.seed, cfg.seconds, nil)
		reportValidity(log, win, in)
		err = scoreEndToEnd(res, spec, win, in, p50(setupS), log)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.Correct = res.Failed == 0
	printMetrics(log, res)
	return res, nil
}

// tracedRun is the -trace 1 half of a run: an untraced window, its traced
// twin recorded span by span, the span file, and the layer probes. It
// reports the per-layer metrics only; end-to-end numbers never come from
// a window that was being recorded.
func tracedRun(cfg runConfig, spec *benchSpec, w workload, res *runResult) error {
	untraced := measure(w, cfg.seed, cfg.seconds*0.4, nil)
	rec := newRecorder(w.info().callers)
	traced := measure(w, cfg.seed+1, cfg.seconds*0.4, rec)
	countOps(res, untraced)
	countOps(res, traced)
	spans := rec.spans()
	dir, err := outDir()
	if err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(dir, cfg.workload+".trace.json"),
		traceFile{Workload: cfg.workload, Seed: cfg.seed, Spans: spans}); err != nil {
		return err
	}
	pl := newPerLayer(spec)
	for name, v := range w.stages() {
		pl[name] = v
	}
	scoreBench(pl, untraced, traced, spans)
	// Each probe repeats for 2 % of the window (at least three times).
	budget := time.Duration(cfg.seconds * 0.02 * float64(time.Second))
	if err := w.probes(pl, budget); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	units := unitsOf(spec.PerLayer)
	for name, v := range pl {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return nil
}

// countOps adds a window's attempts and failures to the result, reporting
// each failure's cause.
func countOps(res *runResult, win window) {
	for _, o := range win.ops {
		res.Attempted++
		if o.err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "failed op: %v\n", o.err)
			}
		}
	}
}

// scoreEndToEnd turns the untraced window into the end-to-end metrics,
// every time in it stated at the reference host speed (see ref.go). The
// raw readings go to log.
func scoreEndToEnd(res *runResult, spec *benchSpec, win window, in workloadInfo, setupS float64, log io.Writer) error {
	countOps(res, win)
	raw := sortedCopy(win.verifiedLatencies())
	if len(raw) == 0 {
		return fmt.Errorf("no operation verified in the measured window (%d attempted)", res.Attempted)
	}
	f := hostFactor(win.refTimings())
	wallS, cpuS := win.netOfRef()
	fmt.Fprintf(log, "host factor %.4f (reference %.4f ms, nominal %.2f ms) | as measured: latency p50 %.3f ms, p90 %.3f ms, wall %.3f s, cpu %.3f s\n",
		f, midmean(win.refTimings()), refNominalMs, percentile(raw, 0.50), percentile(raw, 0.90), wallS, cpuS)
	verified := float64(len(raw))
	within := 0
	for _, l := range raw {
		if l*f <= in.sloMs {
			within++
		}
	}
	units := unitsOf(spec.EndToEnd)
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }
	set("latency_ms_p50", percentile(raw, 0.50)*f)
	// An open loop's window is as long as its schedule whatever the host
	// does; a closed loop's is made of the ops' own times.
	if win.open {
		set("throughput_rows_per_s", float64(in.rowsPerOp)*verified/wallS)
	} else {
		set("throughput_rows_per_s", float64(in.rowsPerOp)*verified/(wallS*f))
	}
	set("slo_attain", float64(within)/float64(res.Attempted))
	set("cpu_s_per_op", cpuS*f/verified)
	set("allocs_per_op", float64(win.mallocs)/verified)
	set("setup_s", setupS)
	return nil
}

// reportValidity says when a run's numbers should not be trusted, and why.
func reportValidity(log io.Writer, win window, in workloadInfo) {
	var why []string
	if n := runtime.NumCPU(); n < 2 {
		why = append(why, fmt.Sprintf("nproc=%d < 2: load generator and system share one core", n))
	}
	if n := len(win.verifiedLatencies()); n < 100 {
		why = append(why, fmt.Sprintf("%d measured ops < 100: fewer than 10 samples lie beyond p90", n))
	}
	failed := 0
	var lags []float64
	for _, o := range win.ops {
		if o.err != nil {
			failed++
		}
		lags = append(lags, o.lagMs)
	}
	if failed > 0 {
		why = append(why, fmt.Sprintf("%d of %d ops failed verification or returned an error", failed, len(win.ops)))
	}
	if in.openRate > 0 {
		if l := p90(lags); l > 5 {
			why = append(why, fmt.Sprintf("generator lag p90 %.2f ms > 5 ms: arrivals were not sent on schedule", l))
		}
	}
	if len(why) == 0 {
		fmt.Fprintln(log, "valid: yes")
		return
	}
	fmt.Fprintf(log, "valid: NO — %s\n", strings.Join(why, "; "))
}

// printMetrics writes the metric table, sorted by name, for people.
func printMetrics(log io.Writer, res *runResult) {
	fmt.Fprintf(log, "ops: attempted %d, succeeded %d, failed %d (fail_ratio %.4f)\n",
		res.Attempted, res.Attempted-res.Failed, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(log, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
