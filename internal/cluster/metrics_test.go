package cluster

import (
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"cham/internal/obs"
	rt "cham/internal/runtime"
)

var update = flag.Bool("update", false, "rewrite testdata/metric_families.txt from the live registry")

// TestMetricFamilies: the metric families are a checked list. This test
// binary links server, cluster, client, core, chamnp and runtime, so the
// registry holds every cham_* family a serving process exports; their
// names and types must match testdata/metric_families.txt, the list
// chamtop and the dashboards are written against. A door that shares the
// front end cannot rename or drop a cham_server_* / cham_cluster_* family
// — or start charging another door's — without this diff showing it.
// Regenerate with `go test ./internal/cluster -run TestMetricFamilies -update`.
func TestMetricFamilies(t *testing.T) {
	// The per-engine busy counters are the one family registered on first
	// use rather than at init.
	if _, err := rt.New(rt.NewDevice(1, time.Microsecond, rt.FaultPlan{})); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var lines []string
	for _, m := range obs.Default().Snapshot() {
		if line := m.Name + " " + m.Type; !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/metric_families.txt"
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
		t.Errorf("metric families differ from %s (rerun with -update if the change is meant):\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
