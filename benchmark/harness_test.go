package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cham"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	// Nearest rank leaves exactly n - ceil(0.9 n) = 10 samples beyond p90.
	if got := percentile(v, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile([]float64{7}, 0.90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := midmean([]float64{9, 1, 2, 3, 4, 5, 6, 100}); got != 4.5 {
		t.Errorf("midmean of 1 2 3 4 5 6 9 100 = %v, want the mean of 3 4 5 6", got)
	}
	if got := midmean([]float64{3, 1, 2}); got != 2 {
		t.Errorf("midmean of three samples = %v, want their median 2", got)
	}
	if got := p90([]float64{5, 1, 4, 2, 3}); got != 5 {
		t.Errorf("p90 of unsorted 1..5 = %v, want 5", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{40, 10, 20}, 10, 20, 40},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestArrivalScheduleIsSeeded(t *testing.T) {
	a := arrivalSchedule(42, 8, 25)
	b := arrivalSchedule(42, 8, 25)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, arrivalSchedule(43, 8, 25)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 200 {
		t.Fatalf("8 req/s over 25 s scheduled %d arrivals, want 200", len(a))
	}
	for i, off := range a {
		if off < 0 || off >= 25*time.Second {
			t.Fatalf("arrival %d at %v lies outside the window", i, off)
		}
		if i > 0 && off < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
}

func TestMatrixPoolIsSeeded(t *testing.T) {
	const tmod = 65537
	a := matrixPool(cham.NewRNG(7), tmod, 3, 4, 5)
	b := matrixPool(cham.NewRNG(7), tmod, 3, 4, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two pools")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("pooled matrices repeat")
	}
	if len(a) != 3 || len(a[0]) != 4 || len(a[0][0]) != 5 {
		t.Fatalf("pool shape %dx%dx%d, want 3x4x5", len(a), len(a[0]), len(a[0][0]))
	}
	for _, m := range a {
		for _, row := range m {
			for _, x := range row {
				if x >= tmod {
					t.Fatalf("entry %d not reduced mod t", x)
				}
			}
		}
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{Op: 1, ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: 10..60 is covered once
		{Op: 1, ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the root: only 90..100 counts
		{Op: 2, ID: 0, Parent: -1, Name: "op", Start: 200, End: 250},
	}
	got := selfTimes(spans)
	if got[1] != 100-50-10 {
		t.Errorf("op 1 self time = %d, want 40", got[1])
	}
	if got[2] != 50 {
		t.Errorf("childless op 2 self time = %d, want its whole duration 50", got[2])
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var rec *recorder
	tr := rec.startOp(0, 0)
	tr.end(tr.begin("x"))
	tr.finish()

	rec = newRecorder(2)
	tr = rec.startOp(1, 9)
	h := tr.begin("core.apply")
	tr.end(h)
	tr.finish()
	spans := rec.spans()
	if len(spans) != 2 || spans[0].Name != "op" || spans[1].Name != "core.apply" ||
		spans[1].Parent != spans[0].ID || spans[1].Op != 9 || spans[0].End < spans[1].End {
		t.Fatalf("recorded %+v", spans)
	}
}

// The reference is a yardstick: the same work every call, on every lane.
func TestHostRefIsFixedWork(t *testing.T) {
	a, b := newHostRef(), newHostRef()
	for k := 0; k < 3; k++ {
		if a.run() <= 0 || b.run() <= 0 {
			t.Fatal("reference took no time")
		}
	}
	if !reflect.DeepEqual(a.a, b.a) {
		t.Fatal("two references fed the same calls hold different arrays")
	}
	for _, x := range a.a {
		if x >= refQ {
			t.Fatalf("coefficient %d not reduced mod refQ", x)
		}
	}
	// The middle half of 1 2 2 2 2 2 2 50 (x nominal) is 2 2 2 2.
	ref := []float64{50, 2, 2, 1, 2, 2, 2, 2}
	for i := range ref {
		ref[i] *= refNominalMs
	}
	if got := hostFactor(ref); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("host factor at twice the nominal reference time = %v, want 0.5", got)
	}
	if got := hostFactor(nil); got != 1 {
		t.Errorf("host factor without timings = %v, want 1", got)
	}
}

// A closed loop's reference calls hold their lane; an open loop's do not
// delay its arrivals. Either way they are CPU the program did not spend.
func TestWindowNetOfRef(t *testing.T) {
	ops := []opResult{{refMs: 100}, {refMs: 300}}
	closed := window{ops: ops, wallS: 10, cpuS: 8, lanes: 2}
	if wall, cpu := closed.netOfRef(); math.Abs(wall-9.8) > 1e-12 || math.Abs(cpu-7.6) > 1e-12 {
		t.Errorf("closed loop net of reference: wall %v cpu %v, want 9.8 7.6", wall, cpu)
	}
	open := window{ops: ops, wallS: 10, cpuS: 8, lanes: 2, open: true}
	if wall, cpu := open.netOfRef(); wall != 10 || math.Abs(cpu-7.6) > 1e-12 {
		t.Errorf("open loop net of reference: wall %v cpu %v, want 10 7.6", wall, cpu)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricSpec{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	thr := metricSpec{Name: "throughput_rows_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 100, 99, 100}
	cases := []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lat, steady, []float64{120, 121, 120, 119, 120}, "worse"},
		{lat, steady, []float64{105, 106, 105, 104, 105}, "no worse"},
		{lat, steady, []float64{80, 81, 80, 79, 80}, "better"},
		{thr, steady, []float64{80, 81, 80, 79, 80}, "worse"},
		{thr, steady, []float64{120, 121, 120, 119, 120}, "better"},
		{lat, []float64{100, 150, 80, 120, 60}, steady, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload at ring degree 256
// with one-second windows and checks that what a run emits is exactly
// what BENCHMARK.json declares: every metric for every workload, no extras.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.workloadNames(); !reflect.DeepEqual(got, []string{wlHMVP, wlMatMul, wlServe, wlCluster}) {
		t.Fatalf("BENCHMARK.json workloads = %v", got)
	}
	declared := func(ms []metricSpec) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := [2]map[string]string{declared(spec.EndToEnd), declared(spec.PerLayer)}
	for _, wl := range spec.workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			res, err := runOne(runConfig{workload: wl, seed: 3, seconds: 1, trace: trace == 1, smoke: true}, spec, testWriter{t})
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: %s = %v", wl, trace, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace %d emits %v\nBENCHMARK.json declares %v", wl, trace, got, want[trace])
			}
			// Every workload runs the kernel layers, so none of their
			// metrics may be left at the 0 of an untraversed layer
			// (differences of two timings excepted, and the apply's
			// allocation count, which is exactly 0 on one thread).
			for name, m := range res.Metrics {
				layer, _, _ := strings.Cut(name, ".")
				kernel := layer == "bfv" || layer == "ntt" || layer == "ring" || layer == "rlwe" || layer == "lwe" || layer == "core"
				if trace == 1 && kernel && name != "core.rowwork_ms" && name != "core.prepared_mb" && name != "core.apply_allocs" && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want a measured value", wl, name, m.Value)
				}
			}
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(b []byte) (int, error) { w.t.Log(string(b)); return len(b), nil }
