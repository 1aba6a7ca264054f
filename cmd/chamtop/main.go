// Command chamtop is a small top(1)-style viewer for a running chamsim
// (or any process serving the obs registry): it polls /metrics, and
// renders the HMVP stage breakdown, the runtime/engine state, and (when
// pointed at a chamcluster gateway) the scatter/gather counters as text
// tables, with rates computed between consecutive scrapes.
//
// Usage:
//
//	chamtop                        poll http://localhost:9090/metrics
//	chamtop -url http://host:9090/metrics -interval 2s
//	chamtop -once                  single scrape, print, exit
//	chamtop -n 5                   five scrapes, then exit
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cham/internal/obs"
	"cham/internal/vec"
)

var (
	urlFlag  = flag.String("url", "http://localhost:9090/metrics", "metrics endpoint to poll")
	interval = flag.Duration("interval", 2*time.Second, "time between scrapes")
	once     = flag.Bool("once", false, "scrape once and exit")
	count    = flag.Int("n", 0, "exit after this many scrapes (0 = run until interrupted)")
)

// scrape fetches and parses one exposition.
func scrape(url string) ([]obs.Sample, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("chamtop: %s returned %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(string(body))
}

// view indexes one scrape for the renderer.
type view struct {
	when    time.Time
	samples map[string]float64 // series key -> value
}

func index(samples []obs.Sample, when time.Time) *view {
	v := &view{when: when, samples: make(map[string]float64, len(samples))}
	for _, s := range samples {
		v.samples[seriesKey(s)] = s.Value
	}
	return v
}

func seriesKey(s obs.Sample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
	}
	return b.String()
}

func (v *view) get(name string, labels ...string) (float64, bool) {
	s := obs.Sample{Name: name, Labels: map[string]string{}}
	for i := 0; i+1 < len(labels); i += 2 {
		s.Labels[labels[i]] = labels[i+1]
	}
	val, ok := v.samples[seriesKey(s)]
	return val, ok
}

// kernelImpl reads the scraped process's row-kernel implementation off its
// cham_kernel_impl info gauge, so stage times from two hosts are compared
// knowing whether they ran the same code path.
func kernelImpl(v *view) string {
	for _, impl := range [...]string{vec.ImplIFMA, vec.ImplGeneric} {
		if val, ok := v.get("cham_kernel_impl", "impl", impl); ok && val == 1 {
			return impl
		}
	}
	return "unknown"
}

// render prints the stage and engine tables; prev may be nil (first
// scrape: totals only, no rates).
func render(w io.Writer, cur, prev *view) {
	fmt.Fprintf(w, "chamtop — %s — %s — kernels: %s\n\n", *urlFlag, cur.when.Format("15:04:05"), kernelImpl(cur))

	// Stage table: count, total seconds, mean latency, share of the
	// summed stage time.
	var totalSec float64
	type row struct {
		name            string
		count, sum, avg float64
	}
	rows := make([]row, 0, obs.NumStages)
	for _, stage := range obs.StageNames {
		cnt, ok1 := cur.get("cham_hmvp_stage_seconds_count", "stage", stage)
		sum, ok2 := cur.get("cham_hmvp_stage_seconds_sum", "stage", stage)
		if !ok1 || !ok2 {
			continue
		}
		r := row{name: stage, count: cnt, sum: sum}
		if cnt > 0 {
			r.avg = sum / cnt
		}
		totalSec += sum
		rows = append(rows, r)
	}
	fmt.Fprintf(w, "%-12s %10s %12s %12s %7s\n", "STAGE", "COUNT", "TOTAL(s)", "AVG(ms)", "SHARE")
	for _, r := range rows {
		share := 0.0
		if totalSec > 0 {
			share = 100 * r.sum / totalSec
		}
		fmt.Fprintf(w, "%-12s %10.0f %12.4f %12.4f %6.1f%%\n",
			r.name, r.count, r.sum, 1e3*r.avg, share)
	}

	// Engine table: busy fraction over the scrape interval (delta busy
	// seconds / wall interval); lifetime busy seconds as fallback.
	fmt.Fprintf(w, "\n%-12s %14s %10s\n", "ENGINE", "BUSY(s total)", "BUSY%")
	for e := 0; ; e++ {
		busy, ok := cur.get("cham_runtime_engine_busy_seconds_total", "engine", strconv.Itoa(e))
		if !ok {
			break
		}
		frac := "-"
		if prev != nil {
			if prevBusy, ok := prev.get("cham_runtime_engine_busy_seconds_total", "engine", strconv.Itoa(e)); ok {
				if dt := cur.when.Sub(prev.when).Seconds(); dt > 0 {
					frac = fmt.Sprintf("%.1f%%", 100*(busy-prevBusy)/dt)
				}
			}
		}
		fmt.Fprintf(w, "engine %-5d %14.4f %10s\n", e, busy, frac)
	}

	// Cluster section: only rendered when the endpoint belongs to a
	// chamcluster gateway (the cham_cluster_* family is registered).
	if nodes, ok := cur.get("cham_cluster_nodes"); ok {
		scatters, _ := cur.get("cham_cluster_scatters_total")
		shardOK, _ := cur.get("cham_cluster_shard_requests_total", "outcome", "ok")
		shardErr, _ := cur.get("cham_cluster_shard_requests_total", "outcome", "error")
		hedges, _ := cur.get("cham_cluster_hedges_total")
		denied, _ := cur.get("cham_cluster_hedges_denied_total")
		cancels, _ := cur.get("cham_cluster_hedge_cancels_total")
		threshold, _ := cur.get("cham_cluster_hedge_threshold_seconds")
		rescatters, _ := cur.get("cham_cluster_rescatters_total")
		degraded, _ := cur.get("cham_cluster_degraded_total")
		joins, _ := cur.get("cham_cluster_joins_total")
		conns, _ := cur.get("cham_cluster_gateway_connections")
		gatherCnt, _ := cur.get("cham_cluster_gather_seconds_count")
		gatherSum, _ := cur.get("cham_cluster_gather_seconds_sum")
		rate := "-"
		if prev != nil {
			if prevScatters, ok := prev.get("cham_cluster_scatters_total"); ok {
				if dt := cur.when.Sub(prev.when).Seconds(); dt > 0 {
					rate = fmt.Sprintf("%.1f/s", (scatters-prevScatters)/dt)
				}
			}
		}
		gatherAvg := 0.0
		if gatherCnt > 0 {
			gatherAvg = gatherSum / gatherCnt
		}
		fmt.Fprintf(w, "\nCLUSTER  nodes %.0f  conns %.0f  scatters %.0f (%s)  gather avg %.2fms\n",
			nodes, conns, scatters, rate, 1e3*gatherAvg)
		// Hedges as a share of what the shards were asked: the policy's
		// budget keeps the straggler part of it near 5 %, so a larger
		// share means failovers, and denials mean a throttled fleet.
		hedgeShare := 0.0
		if shardOK+shardErr > 0 {
			hedgeShare = 100 * hedges / (shardOK + shardErr)
		}
		fmt.Fprintf(w, "         shard ok %.0f  err %.0f  rescatters %.0f  degraded %.0f  joins %.0f\n",
			shardOK, shardErr, rescatters, degraded, joins)
		fmt.Fprintf(w, "         hedges %.0f (%.1f%% of shard requests)  denied %.0f  cancelled %.0f  threshold %.1fms\n",
			hedges, hedgeShare, denied, cancels, 1e3*threshold)
	}

	// RAS one-liner.
	replays, _ := cur.get("cham_runtime_replays_total")
	resets, _ := cur.get("cham_runtime_resets_total")
	temp, _ := cur.get("cham_runtime_temp_celsius")
	alive, _ := cur.get("cham_runtime_alive")
	applies, _ := cur.get("cham_hmvp_applies_total", "path", "prepared")
	appliesMV, _ := cur.get("cham_hmvp_applies_total", "path", "matvec")
	fmt.Fprintf(w, "\napplies %.0f  replays %.0f  resets %.0f  temp %.1fC  alive %.0f\n",
		applies+appliesMV, replays, resets, temp, alive)
}

func main() {
	flag.Parse()
	n := *count
	if *once {
		n = 1
	}
	var prev *view
	for i := 0; n == 0 || i < n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		samples, err := scrape(*urlFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chamtop:", err)
			os.Exit(1)
		}
		cur := index(samples, time.Now())
		render(os.Stdout, cur, prev)
		fmt.Println()
		prev = cur
	}
}
