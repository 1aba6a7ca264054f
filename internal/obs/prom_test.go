package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exposition format byte for byte: HELP
// and TYPE headers once per family, families sorted by name, series by
// label signature, histograms expanded cumulatively with +Inf, _sum and
// _count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cham_jobs_total", "Jobs executed.", "result", "ok").Add(3)
	r.Counter("cham_jobs_total", "Jobs executed.", "result", "error").Inc()
	r.Gauge("cham_temp_celsius", "Die temperature.").Set(45.5)
	r.CounterF("cham_busy_seconds_total", "Engine busy time.", "engine", "0").Add(1.25)
	h := r.Histogram("cham_stage_seconds", "Stage latency.", []float64{0.001, 0.1}, "stage", "ntt")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(3)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cham_busy_seconds_total Engine busy time.
# TYPE cham_busy_seconds_total counter
cham_busy_seconds_total{engine="0"} 1.25
# HELP cham_jobs_total Jobs executed.
# TYPE cham_jobs_total counter
cham_jobs_total{result="error"} 1
cham_jobs_total{result="ok"} 3
# HELP cham_stage_seconds Stage latency.
# TYPE cham_stage_seconds histogram
cham_stage_seconds_bucket{stage="ntt",le="0.001"} 1
cham_stage_seconds_bucket{stage="ntt",le="0.1"} 3
cham_stage_seconds_bucket{stage="ntt",le="+Inf"} 4
cham_stage_seconds_sum{stage="ntt"} 3.1005
cham_stage_seconds_count{stage="ntt"} 4
# HELP cham_temp_celsius Die temperature.
# TYPE cham_temp_celsius gauge
cham_temp_celsius 45.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition format drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestParseRoundTrip: ParseText reads back exactly what WriteTo emitted.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", "k", "v1").Add(7)
	r.Gauge("b_bits", "").Set(-12.5)
	h := r.Histogram("c_seconds", "", []float64{1}, "stage", "pack")
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		key := s.Name
		for _, k := range []string{"k", "stage", "le"} {
			if v, ok := s.Labels[k]; ok {
				key += "|" + k + "=" + v
			}
		}
		byKey[key] = s.Value
	}
	checks := map[string]float64{
		"a_total|k=v1":                     7,
		"b_bits":                           -12.5,
		"c_seconds_bucket|stage=pack|le=1": 1,
		"c_seconds_count|stage=pack":       2,
		"c_seconds_sum|stage=pack":         2.5,
	}
	for k, want := range checks {
		got, ok := byKey[k]
		if !ok {
			t.Errorf("sample %q missing after round trip", k)
			continue
		}
		if got != want {
			t.Errorf("sample %q = %g, want %g", k, got, want)
		}
	}
	// The +Inf bucket must parse as a real infinity.
	found := false
	for _, s := range samples {
		if s.Name == "c_seconds_bucket" && s.Labels["le"] == "+Inf" {
			found = true
			if s.Value != 2 {
				t.Errorf("+Inf bucket = %g, want 2", s.Value)
			}
		}
	}
	if !found {
		t.Error("no +Inf bucket in parsed output")
	}
}

// TestSnapshotJSON: snapshots are JSON-marshalable and carry cumulative
// buckets.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "").Add(2)
	h := r.Histogram("n_seconds", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"le":"+Inf"`) {
		t.Errorf("marshalled snapshot lacks +Inf bucket: %s", data)
	}
	var hist *MetricSnapshot
	for i := range snap {
		if snap[i].Name == "n_seconds" {
			hist = &snap[i]
		}
	}
	if hist == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if hist.Count != 2 || hist.Sum != 5.5 {
		t.Errorf("histogram snapshot count=%d sum=%g, want 2/5.5", hist.Count, hist.Sum)
	}
	if len(hist.Buckets) != 3 || hist.Buckets[1].Count != 2 {
		t.Errorf("cumulative buckets wrong: %+v", hist.Buckets)
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"no_value_line",
		`x{k="v"} notanumber`,
		`x{k="v" 3`,
	} {
		if _, err := ParseText(bad); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}
