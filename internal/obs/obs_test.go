package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cham/internal/vec"
)

// TestHistogramBucketBoundaries: le semantics are inclusive — a value
// exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0000001, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // (-inf,1], (1,10], (10,100], (100,+inf)
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: got %d observations, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if s := h.Sum(); s < 1e9 || s > 1e9+400 {
		t.Errorf("Sum = %g out of range", s)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 3)
	want := []float64{1e-6, 4e-6, 1.6e-5}
	for i := range want {
		if diff := b[i]/want[i] - 1; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

// TestConcurrentCounters drives counters, float counters, gauges and a
// histogram from many goroutines; run under -race this is the data-race
// regression test for the whole metric layer.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	cf := r.CounterF("cf", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DefBuckets)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cf.Add(0.5)
				g.Add(1)
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := cf.Value(); got != workers*perWorker/2 {
		t.Errorf("float counter = %g, want %d", got, workers*perWorker/2)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestGetOrCreateReturnsSameSeries: the same name+labels resolve to the
// same underlying metric; different labels are distinct series.
func TestGetOrCreateReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "", "k", "v")
	b := r.Counter("x", "", "k", "v")
	if a != b {
		t.Error("same series resolved to different counters")
	}
	if c := r.Counter("x", "", "k", "w"); c == a {
		t.Error("distinct labels resolved to the same counter")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestStageClockAttribution: marks charge elapsed time to the right
// stages, Flush publishes exactly the touched ones, and a second Flush
// publishes nothing more.
func TestStageClockAttribution(t *testing.T) {
	before := stageHists[StageNTT].Count()
	beforeMul := stageHists[StageRowMul].Count()
	var c StageClock
	c.Skip()
	time.Sleep(time.Millisecond)
	c.Mark(StageNTT)
	time.Sleep(time.Millisecond)
	c.Mark(StageRowMul)
	c.Flush()
	c.Flush()
	if got := stageHists[StageNTT].Count(); got != before+1 {
		t.Errorf("ntt histogram count %d, want %d", got, before+1)
	}
	if got := stageHists[StageRowMul].Count(); got != beforeMul+1 {
		t.Errorf("row_mul histogram count %d, want %d", got, beforeMul+1)
	}
}

// TestStageTaxonomyComplete: the paper's stages (encode and lift as one)
// plus the hoisted decompose split, unique non-empty names — DESIGN.md and the exposition
// format both key off this table.
func TestStageTaxonomyComplete(t *testing.T) {
	if NumStages != 9 {
		t.Fatalf("NumStages = %d, want the paper's 8 (lift runs inside ntt) plus decompose", NumStages)
	}
	seen := map[string]bool{}
	for i, name := range StageNames {
		if name == "" {
			t.Errorf("stage %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
		if stageHists[i] == nil {
			t.Errorf("stage %q has no pre-registered histogram", name)
		}
	}
}

// TestEnabledModeZeroAllocs: the full instrumentation vocabulary (Span,
// StageClock, counters) stays off the heap — handles are pre-resolved,
// only time.Now is added — the guarantee the warm ApplyInto path
// depends on.
func TestEnabledModeZeroAllocs(t *testing.T) {
	h := GetHistogram("cham_test_on_seconds", "", DefBuckets)
	c := GetCounter("cham_test_on_total", "")
	var clk StageClock
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan(h)
		clk.Skip()
		clk.Mark(StageNTT)
		clk.Skip()
		clk.Flush()
		c.Inc()
		sp.End()
	}); allocs != 0 {
		t.Errorf("enabled-mode instrumentation allocates %.1f/op, want 0", allocs)
	}
}

// TestKernelImplGauge: the default registry carries exactly one
// cham_kernel_impl series from process start, set to 1, whose impl label
// is what internal/vec reports.
func TestKernelImplGauge(t *testing.T) {
	var b strings.Builder
	if _, err := Default().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	var impls []string
	for _, s := range samples {
		if s.Name == "cham_kernel_impl" {
			if s.Value != 1 {
				t.Errorf("cham_kernel_impl{impl=%q} = %v, want 1", s.Labels["impl"], s.Value)
			}
			impls = append(impls, s.Labels["impl"])
		}
	}
	if len(impls) != 1 || impls[0] != vec.Impl() {
		t.Fatalf("cham_kernel_impl series %q, want exactly [%q]", impls, vec.Impl())
	}
}
