// Command benchmark is the one benchmark for the whole CHAM stack: four
// fixed workloads, six end-to-end metrics with bounds, and per-layer
// probes, all measured from outside by timing calls into public entry
// points. BENCHMARK.json at the repository root declares what it
// measures; README.md explains why.
//
//	bash benchmark/run.sh                          every workload, untraced then traced
//	bash benchmark/run.sh -workload NAME -seed S -seconds T -trace 0|1
//	bash benchmark/run.sh -aa K                    K sets in alternating order, spread vs bound
//	bash benchmark/run.sh -compare A.json B.json   verdict per workload x end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result as the last line (the driver's contract); empty runs every workload, each in its own subprocess")
		seed     = flag.Int64("seed", 1, "every input (keys, matrices, vectors, arrival schedule) derives from it")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: untraced window, end-to-end metrics; 1: traced window plus layer probes, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "shrink every workload to ring degree 256 (harness check, not a measurement)")
		aa       = flag.Int("aa", 0, "run K full untraced sets, alternating workload order, and judge each end-to-end metric's spread against its bound")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *smoke, *aa, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, smoke bool, aa int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
		if smoke {
			seconds = 1
		}
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if workload != "" {
		res, err := runOne(runConfig{workload: workload, seed: seed, seconds: seconds, trace: trace == 1, smoke: smoke}, spec, os.Stdout)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	if aa > 0 {
		return runAA(spec, aa, seed, seconds, smoke)
	}
	return runAll(spec, seed, seconds, smoke)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
