package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// provenance says where and on what a result file was measured; without
// it a number has no history.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	When       string  `json:"when"`
}

// runRecord is one subprocess run of one workload.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Valid    string `json:"valid,omitempty"`
	runResult
}

// resultFile is what a full run or an -aa run writes under benchmark/out/
// and what -compare reads.
type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

func gatherProvenance(seed int64, seconds float64) provenance {
	p := provenance{
		Commit: "unknown", CPU: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, When: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			p.Commit += "+dirty"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s | %s | cpu %q | nproc %d | GOMAXPROCS %d | seed %d | window %gs | %s\n",
		p.Commit, p.GoVersion, p.CPU, p.NProc, p.GoMaxProcs, p.Seed, p.Seconds, p.When)
}

// spawn runs one workload in its own subprocess, so peak RSS, the
// allocator and the scheduler start clean for each, and parses the result
// line it prints last.
func spawn(workload string, seed int64, seconds float64, trace int, smoke bool) (runRecord, error) {
	rec := runRecord{Workload: workload, Seed: seed, Trace: trace}
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.runResult); err != nil {
		return rec, fmt.Errorf("%s: result line: %w", workload, err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "valid:") {
			rec.Valid = strings.TrimSpace(strings.TrimPrefix(l, "valid:"))
		}
	}
	return rec, nil
}

func writeResults(name string, rf resultFile) error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	fmt.Printf("\nresults written to %s\n", path)
	return os.WriteFile(path, b, 0o644)
}

// runAll is the one command: every workload, untraced then traced, every
// metric printed by name with its unit.
func runAll(spec *benchSpec, seed int64, seconds float64, smoke bool) error {
	rf := resultFile{Provenance: gatherProvenance(seed, seconds)}
	rf.Provenance.print(os.Stdout)
	failed := 0
	for _, wl := range spec.workloadNames() {
		fmt.Printf("\n== %s\n", wl)
		var recs [2]runRecord
		for trace := 0; trace <= 1; trace++ {
			rec, err := spawn(wl, seed, seconds, trace, smoke)
			if err != nil {
				return err
			}
			recs[trace] = rec
			rf.Runs = append(rf.Runs, rec)
			failed += rec.Failed
			fmt.Printf("trace %d: attempted %d, succeeded %d, failed %d (fail_ratio %.4f)", trace,
				rec.Attempted, rec.Attempted-rec.Failed, rec.Failed, float64(rec.Failed)/float64(rec.Attempted))
			if trace == 0 {
				fmt.Printf(" | valid: %s", rec.Valid)
			}
			fmt.Println()
		}
		for _, m := range spec.EndToEnd {
			fmt.Printf("  %-34s %14.4f %-7s (%s is better, bound %.0f%%)\n", m.Name, recs[0].Metrics[m.Name].Value, m.Unit, m.Better, m.Bound*100)
		}
		for _, m := range spec.PerLayer {
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, recs[1].Metrics[m.Name].Value, m.Unit)
		}
		printPredictions(wl, recs[0].Metrics, recs[1].Metrics)
	}
	if err := writeResults("results.json", rf); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed; fail_ratio must be 0 on every workload", failed)
	}
	return nil
}

// printPredictions checks the layer -> end-to-end predictions the README
// writes down before measuring. A miss is reported, never tuned away.
func printPredictions(wl string, e2e, layer map[string]metric) {
	check := func(what string, ok bool) {
		mark := "holds"
		if !ok {
			mark = "FAILS"
		}
		fmt.Printf("  prediction %s: %s\n", mark, what)
	}
	lat := e2e["latency_ms_p50"].Value
	self := layer["bench.harness_self_ms_p50"].Value
	check(fmt.Sprintf("bench.harness_self_ms_p50 %.4f ms < 2%% of latency_ms_p50 %.3f ms", self, lat), self < 0.02*lat)
	share := layer["lwe.pack_share"].Value
	switch wl {
	case wlHMVP:
		check(fmt.Sprintf("lwe.pack_share %.3f >= 0.6", share), share >= 0.6)
	case wlMatMul:
		check(fmt.Sprintf("lwe.pack_share %.3f <= 0.35", share), share <= 0.35)
	case wlServe:
		tax := layer["server.tax_ms_p50"].Value
		check(fmt.Sprintf("server.tax_ms_p50 %.3f ms >= 10%% of latency_ms_p50 %.3f ms", tax, lat), tax >= 0.10*lat)
	}
}

// series collects, per workload and metric, the untraced values of a
// result file in run order.
func series(rf resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// runAA runs k full untraced sets of the same code, alternating workload
// order and advancing the seed, and judges every end-to-end metric's
// run-to-run spread against its own bound. A metric that cannot hold its
// bound here cannot resolve a regression of that size either.
func runAA(spec *benchSpec, k int, seed int64, seconds float64, smoke bool) error {
	if k < 2 {
		return fmt.Errorf("-aa needs at least 2 sets to have a spread")
	}
	rf := resultFile{Provenance: gatherProvenance(seed, seconds)}
	rf.Provenance.print(os.Stdout)
	names := spec.workloadNames()
	failed := 0
	for set := 0; set < k; set++ {
		order := append([]string(nil), names...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			rec, err := spawn(wl, seed+int64(set), seconds, 0, smoke)
			if err != nil {
				return err
			}
			failed += rec.Failed
			rf.Runs = append(rf.Runs, rec)
			fmt.Printf("set %d %-20s seed %d: %d ops, %d failed | valid: %s\n", set, wl, rec.Seed, rec.Attempted, rec.Failed, rec.Valid)
		}
	}
	ser := series(rf)
	over := 0
	fmt.Printf("\n%-20s %-24s %12s %12s %12s %8s %7s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			v := ser[wl][m.Name]
			q1, q2, q3 := quartiles(v)
			sp, verdict := spread(v), "ok"
			switch {
			case sp > m.Bound && m.Name == "setup_s":
				// The driver judges setup_s by its median only: a run holds
				// three set-ups, too few for a steady spread.
				verdict = "wide (not judged)"
			case sp > m.Bound:
				verdict = "SPREAD EXCEEDS BOUND"
				over++
			}
			fmt.Printf("%-20s %-24s %12.4f %12.4f %12.4f %7.2f%% %6.0f%% %s\n", wl, m.Name, q2, q1, q3, sp*100, m.Bound*100, verdict)
		}
	}
	if err := writeResults("aa.json", rf); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if over > 0 {
		return fmt.Errorf("%d workload x metric spreads exceed their bound", over)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, how result
// file B stands against A: the delta, the bound, and a verdict. A metric
// whose own spread is wider than its bound is unresolved, not unchanged.
func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	var files [2]resultFile
	for i, path := range []string{pathA, pathB} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "%c: ", 'A'+i)
		files[i].Provenance.print(w)
	}
	a, b := series(files[0]), series(files[1])
	fmt.Fprintf(w, "\n%-20s %-24s %12s %12s %9s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-20s %-24s missing from one side\n", wl, m.Name)
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-20s %-24s %12.4f %12.4f %9.4f %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl, m.Name, ma, mb, mb/ma, spread(va)*100, spread(vb)*100, m.Bound*100, verdict(m, va, vb))
		}
	}
	return nil
}

// verdict applies the comparison rule: unresolved when either side's
// spread is wider than the bound, worse when B's median is worse than A's
// by more than the bound, better when it is better by more than either
// side's own run-to-run spread, else no worse.
func verdict(m metricSpec, va, vb []float64) string {
	_, ma, _ := quartiles(va)
	_, mb, _ := quartiles(vb)
	if ma == 0 {
		return "unresolved (A median is 0)"
	}
	worsening := (mb - ma) / ma
	if m.Better == "higher" {
		worsening = -worsening
	}
	noise := max(spread(va), spread(vb))
	switch {
	case noise > m.Bound:
		return "unresolved"
	case worsening > m.Bound:
		return "worse"
	case -worsening > noise:
		return "better"
	}
	return "no worse"
}
