package exp

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/models.golden from the model experiments")

// TestModelTierGolden: every registered experiment except software is a
// model — the FPGA resources, the pipeline and NTT-unit simulations, the
// design-space search, the heterogeneous schedule and the paper's
// baselines — so it renders the same bytes on every run and every host;
// software alone times this host. The golden holds those experiments in
// the layout `chamsim all` prints (Experiment.Render, which
// cham.RunExperiment returns, then a newline), so it is that command's
// output up to its `# software` section. Regenerate
// with `go test ./internal/exp -run TestModelTierGolden -update`.
func TestModelTierGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range All() {
		if e.ID == "software" {
			continue
		}
		b.WriteString(e.Render())
		b.WriteByte('\n')
	}
	got := b.String()
	const golden = "testdata/models.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "(end of golden)"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("model output differs from %s at line %d (rerun with -update if the change is meant):\n got: %s\nwant: %s", golden, i+1, gl[i], w)
			}
		}
		t.Fatalf("model output is a prefix of %s: %d lines, want %d (rerun with -update if the change is meant)", golden, len(gl), len(wl))
	}
}
