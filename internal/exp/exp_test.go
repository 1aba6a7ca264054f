package exp

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table2", "table3", "fig2a", "fig2b", "nttops",
		"fig6", "fig8", "fig7ab", "fig7c", "fig1b", "fig5", "headline", "software"}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("%d experiments registered, want %d", len(All()), len(want))
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus id found")
	}
}

// TestAllExperimentsRun executes every experiment and sanity-checks the
// rendered output.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		tables := e.Run()
		if len(tables) == 0 {
			t.Errorf("%s: no tables", e.ID)
			continue
		}
		for _, tb := range tables {
			out := tb.Render()
			if !strings.Contains(out, tb.Title) {
				t.Errorf("%s: render missing title", e.ID)
			}
			if len(tb.Rows) == 0 {
				t.Errorf("%s: empty table %q", e.ID, tb.Title)
			}
			for _, r := range tb.Rows {
				if len(r) != len(tb.Columns) {
					t.Errorf("%s: row width %d != %d columns", e.ID, len(r), len(tb.Columns))
				}
			}
			if strings.Contains(out, "CALIBRATION FAILURE") {
				t.Errorf("%s: %s", e.ID, out)
			}
		}
	}
}

// parseRatio pulls a float out of strings like "123.4x" or "95.0%".
func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// TestHeadlineClaims: the reproduced headline numbers must land near the
// paper's 1800x / 36x / 144x.
func TestHeadlineClaims(t *testing.T) {
	e, _ := Find("headline")
	tb := e.Run()[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("%d headline rows", len(tb.Rows))
	}
	checks := []struct {
		claim  string
		lo, hi float64
	}{
		{"matrix-vector product", 1400, 2200},
		{"logistic regression", 25, 45},
		{"Beaver triple generation", 100, 175},
	}
	for i, c := range checks {
		if tb.Rows[i][0] != c.claim {
			t.Fatalf("row %d is %q", i, tb.Rows[i][0])
		}
		got := parseRatio(t, tb.Rows[i][2])
		if got < c.lo || got > c.hi {
			t.Errorf("%s: reproduced %.0fx outside [%.0f, %.0f] (paper %s)",
				c.claim, got, c.lo, c.hi, tb.Rows[i][1])
		}
	}
}

// TestFig7cRange: the Beaver speed-ups must span roughly the paper's
// 49x-144x band.
func TestFig7cRange(t *testing.T) {
	e, _ := Find("fig7c")
	tb := e.Run()[0]
	min, max := 1e18, 0.0
	for _, r := range tb.Rows {
		v := parseRatio(t, r[4])
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min < 35 || min > 80 {
		t.Errorf("min Beaver speed-up %.0f, want near the paper's 49", min)
	}
	if max < 100 || max > 185 {
		t.Errorf("max Beaver speed-up %.0f, want near the paper's 144", max)
	}
}

// TestFig7abRanges: matvec speed-ups within 30x-1800x-ish and end-to-end
// within 2x-36x-ish, both growing with dataset size.
func TestFig7abRanges(t *testing.T) {
	e, _ := Find("fig7ab")
	tables := e.Run()
	speed := tables[1]
	var prevMat, prevE2E float64
	for i, r := range speed.Rows {
		mat := parseRatio(t, r[1])
		e2e := parseRatio(t, r[3])
		if mat < 20 || mat > 2200 {
			t.Errorf("%s: matvec speed-up %.0f outside the 30-1800 band", r[0], mat)
		}
		if e2e < 1.5 || e2e > 45 {
			t.Errorf("%s: end-to-end speed-up %.1f outside the 2-36 band", r[0], e2e)
		}
		if i > 0 && (mat < prevMat*0.9 || e2e < prevE2E*0.9) {
			t.Errorf("%s: speed-ups should grow with dataset size", r[0])
		}
		prevMat, prevE2E = mat, e2e
	}
	first := speed.Rows[0]
	last := speed.Rows[len(speed.Rows)-1]
	if v := parseRatio(t, first[3]); v > 5 {
		t.Errorf("smallest dataset end-to-end %.1fx, paper starts near 2x", v)
	}
	if v := parseRatio(t, last[3]); v < 25 {
		t.Errorf("largest dataset end-to-end %.1fx, paper peaks at 36x", v)
	}
}

// TestFig8Claims: >10x over CPU at production sizes, 0.3-0.7x of GPU
// latency, >90% offload for large m.
func TestFig8Claims(t *testing.T) {
	e, _ := Find("fig8")
	for _, tb := range e.Run() {
		for _, r := range tb.Rows {
			m := r[0]
			vsCPU := parseRatio(t, r[4])
			vsGPU := parseRatio(t, r[5])
			if (m == "4096" || m == "8192") && vsCPU < 10 {
				t.Errorf("%s m=%s: CPU speed-up %.1f < 10", tb.Title, m, vsCPU)
			}
			if vsGPU < 0.2 || vsGPU > 0.8 {
				t.Errorf("%s m=%s: GPU latency ratio %.2f outside 0.3-0.7-ish", tb.Title, m, vsGPU)
			}
			if m == "4096" {
				if off := parseRatio(t, r[6]); off < 90 {
					t.Errorf("%s m=%s: offload %.1f%% < 90%%", tb.Title, m, off)
				}
			}
		}
	}
}

// TestFig6Claims: CHAM throughput beats the GPU everywhere and by ≈4.5x at
// large saturated shapes; column spill beyond N degrades throughput.
func TestFig6Claims(t *testing.T) {
	e, _ := Find("fig6")
	tb := e.Run()[0]
	cell := func(m, n string, col int) string {
		for _, r := range tb.Rows {
			if r[0] == m && r[1] == n {
				return r[col]
			}
		}
		t.Fatalf("row %s/%s missing", m, n)
		return ""
	}
	big := parseRatio(t, cell("8192", "4096", 4))
	if big < 3.5 || big > 5.5 {
		t.Errorf("large-shape CHAM/GPU %.2f, want ≈4.5", big)
	}
	// Throughput grows with m at fixed n.
	t256 := parseRatio(t, strings.TrimSuffix(cell("256", "4096", 2), "k"))
	t8192 := parseRatio(t, strings.TrimSuffix(cell("8192", "4096", 2), "k"))
	if t8192 <= t256 {
		t.Error("throughput should grow with m")
	}
	// Column spill: n=8192 slower than n=4096 at the same m.
	n4096 := parseRatio(t, strings.TrimSuffix(cell("4096", "4096", 2), "k"))
	n8192 := parseRatio(t, strings.TrimSuffix(cell("4096", "8192", 2), "k"))
	if n8192 >= n4096 {
		t.Error("column spill should reduce throughput")
	}
}

// TestFig1bOverlapWins: the overlapped schedule must beat serial offload.
func TestFig1bOverlapWins(t *testing.T) {
	e, _ := Find("fig1b")
	tb := e.Run()[0]
	sp := parseRatio(t, tb.Rows[1][3])
	if sp <= 1.05 {
		t.Errorf("overlap speed-up %.2f, want > 1", sp)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "hello")
	out := tb.Render()
	if !strings.Contains(out, "note: hello") {
		t.Error("note missing")
	}
	if !strings.Contains(out, "--") {
		t.Error("separator missing")
	}
}

// TestSoftwareModelColumn holds the deterministic half of the software
// table — its "model (16-core Xeon)" column and CHAM's design-point time
// in its note — to the strings it renders; the measured column times this
// host and is not held.
func TestSoftwareModelColumn(t *testing.T) {
	m := modelSoftware()
	for _, c := range []struct{ cell, got, want string }{
		{"NTT fwd+inv (1 limb)", ms(m.NTT), "220.4 us"},
		{"key switch", ms(m.KeySwitch), "1.62 ms"},
		{"HMVP 8x4096", ms(m.HMVP8), "2.67 ms"},
		{"Prepare 256x4096", ms(m.Prepare), "10.58 ms"},
		{"Encrypt (1 chunk)", ms(m.Encrypt), "180.0 us"},
		{"HMVP 256x4096 (prepared, warm)", ms(m.Apply), "89.22 ms"},
		{"Decrypt (1 tile)", ms(m.Decrypt), "120.0 us"},
		{"note: CHAM on 256x4096", ms(m.CHAM), "8.96 ms"},
		{"note: faster than the Xeon model", f1(m.Apply/m.CHAM) + "x", "10.0x"},
	} {
		if c.got != c.want {
			t.Errorf("%s: model %s, want %s", c.cell, c.got, c.want)
		}
	}
}
