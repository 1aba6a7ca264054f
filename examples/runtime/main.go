// Runtime: the §III-C software stack in action. A simulated CHAM card is
// configured to misbehave — corrupted register loads, a mid-stream hang,
// intermittent job errors — and the runtime's RAS machinery (read-back
// verified loads, watchdog reset, replay, health monitoring) delivers
// every job anyway.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cham/internal/obs"
	chamrt "cham/internal/runtime"
)

func main() {
	engines := flag.Int("workers", 2, "simulated accelerator engines (parallel job lanes)")
	flag.Parse()
	faults := chamrt.FaultPlan{
		CorruptWriteEvery: 9,  // every 9th register write flips a bit
		HangAfterJobs:     6,  // the card wedges after job 6
		FailJobEvery:      11, // and sporadically reports job errors
	}
	dev := chamrt.NewDevice(*engines, 300*time.Microsecond, faults)
	rt, err := chamrt.New(dev)
	if err != nil {
		log.Fatal(err)
	}
	rt.JobTimeout = 5 * time.Millisecond

	fmt.Printf("CHAM card up: %d engines, fault plan %+v\n", rt.Engines(), faults)
	const jobs = 20
	for i := 0; i < jobs; i++ {
		desc := &chamrt.HMVPDescriptor{
			Rows: 4096, Cols: 4096,
			MatrixAddr: 0x1000_0000, VectorAddr: 0x2000_0000,
			KeyAddr: 0x3000_0000, ResultAddr: 0x4000_0000,
			PackRowsLog2: 12,
		}
		if err := rt.RunHMVPCtx(context.Background(), desc); err != nil {
			log.Fatalf("job %d lost: %v", i, err)
		}
	}
	sample := rt.HealthCheck()
	fmt.Printf("all %d jobs completed\n", jobs)
	fmt.Printf("RAS counters: %d replays, %d resets, %d recovered register loads\n",
		rt.Replays(), rt.Resets(), rt.Driver().RecoveredWrites())
	fmt.Printf("health: alive=%v temp=%.1fC jobsDone=%d\n",
		sample.Alive, sample.TempC, sample.JobsDone)

	// The same story in Prometheus text, as chamsim -metrics would
	// serve it: just the runtime families.
	fmt.Println("\nruntime metric families:")
	for _, m := range obs.Default().Snapshot() {
		if !strings.HasPrefix(m.Name, "cham_runtime_") {
			continue
		}
		if m.Type == "histogram" {
			fmt.Fprintf(os.Stdout, "  %s%s: %d events, %v s total\n", m.Name, labelsOf(m), m.Count, m.Sum)
		} else {
			fmt.Fprintf(os.Stdout, "  %s%s = %v\n", m.Name, labelsOf(m), m.Value)
		}
	}
}

func labelsOf(m obs.MetricSnapshot) string {
	if len(m.Labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(m.Labels))
	for k, v := range m.Labels {
		parts = append(parts, k+"="+v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
