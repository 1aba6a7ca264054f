package exp

import (
	"fmt"

	"cham/internal/core"
)

// CHAM's heterogeneous CPU+FPGA system (§III-C, Fig. 1b): host threads
// prepare jobs (encode/encrypt), DMA channels move data over PCIe, compute
// engines run the macro-pipeline, and results stream back for host-side
// post-processing. Interleaving these phases across jobs hides transfer
// latency behind computation — the ablation that fig1b and
// BenchmarkAblationOverlap compare against strictly serial execution.

// Job is one accelerator invocation (e.g. one HMVP batch).
type Job struct {
	Name       string
	H2DBytes   int64   // host-to-device payload
	D2HBytes   int64   // device-to-host results
	ComputeSec float64 // engine time
	PrepSec    float64 // host encode+encrypt
	PostSec    float64 // host decrypt+decode
}

// System describes the host/device topology.
type System struct {
	Threads  int     // host worker threads
	Engines  int     // FPGA compute engines
	PCIeGBps float64 // effective per-direction DMA bandwidth
}

// ChamSystem is the production deployment: one host thread per engine
// plus one spare, PCIe Gen3 x16 at an effective 12 GB/s per direction.
func ChamSystem() System {
	engines := ChamConfig().NumEngines
	return System{Threads: engines + 1, Engines: engines, PCIeGBps: 12}
}

// Timeline summarises a simulated schedule.
type Timeline struct {
	Makespan     float64
	EngineBusy   float64 // aggregate engine-seconds of useful work
	TransferBusy float64 // aggregate DMA-seconds (both directions)
	HostBusy     float64 // aggregate host-thread-seconds
	Jobs         []JobTrace
}

// JobTrace records the phase boundaries of one job.
type JobTrace struct {
	Name               string
	PrepStart, PrepEnd float64
	H2DEnd             float64
	ComputeStart       float64
	ComputeEnd         float64
	D2HEnd             float64
	PostEnd            float64
	Engine, Thread     int
}

// EngineUtilization is the fraction of the makespan the engines spent
// computing.
func (t Timeline) EngineUtilization(engines int) float64 {
	if t.Makespan == 0 {
		return 0
	}
	return t.EngineBusy / (t.Makespan * float64(engines))
}

// Simulate schedules the jobs. With overlap=true, phases pipeline across
// jobs (Fig. 1b); with overlap=false each job runs all phases serially and
// exclusively — the naive offload baseline.
func (s System) Simulate(jobs []Job, overlap bool) Timeline {
	if s.Threads < 1 || s.Engines < 1 || s.PCIeGBps <= 0 {
		panic("exp: invalid system")
	}
	var tl Timeline
	threadFree := make([]float64, s.Threads)
	engineFree := make([]float64, s.Engines)
	var dmaInFree, dmaOutFree float64
	var serialClock float64

	for _, j := range jobs {
		h2d := float64(j.H2DBytes) / (s.PCIeGBps * 1e9)
		d2h := float64(j.D2HBytes) / (s.PCIeGBps * 1e9)
		var tr JobTrace
		tr.Name = j.Name

		if !overlap {
			tr.Thread, tr.Engine = 0, 0
			tr.PrepStart = serialClock
			tr.PrepEnd = tr.PrepStart + j.PrepSec
			tr.H2DEnd = tr.PrepEnd + h2d
			tr.ComputeStart = tr.H2DEnd
			tr.ComputeEnd = tr.ComputeStart + j.ComputeSec
			tr.D2HEnd = tr.ComputeEnd + d2h
			tr.PostEnd = tr.D2HEnd + j.PostSec
			serialClock = tr.PostEnd
		} else {
			ti := argmin(threadFree)
			tr.Thread = ti
			tr.PrepStart = threadFree[ti]
			tr.PrepEnd = tr.PrepStart + j.PrepSec
			threadFree[ti] = tr.PrepEnd

			start := max(tr.PrepEnd, dmaInFree)
			tr.H2DEnd = start + h2d
			dmaInFree = tr.H2DEnd

			ei := argmin(engineFree)
			tr.Engine = ei
			tr.ComputeStart = max(tr.H2DEnd, engineFree[ei])
			tr.ComputeEnd = tr.ComputeStart + j.ComputeSec
			engineFree[ei] = tr.ComputeEnd

			start = max(tr.ComputeEnd, dmaOutFree)
			tr.D2HEnd = start + d2h
			dmaOutFree = tr.D2HEnd

			ti = argmin(threadFree)
			post := max(tr.D2HEnd, threadFree[ti])
			tr.PostEnd = post + j.PostSec
			threadFree[ti] = tr.PostEnd
		}

		tl.EngineBusy += j.ComputeSec
		tl.TransferBusy += h2d + d2h
		tl.HostBusy += j.PrepSec + j.PostSec
		if tr.PostEnd > tl.Makespan {
			tl.Makespan = tr.PostEnd
		}
		tl.Jobs = append(tl.Jobs, tr)
	}
	return tl
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// HMVPJob builds the job descriptor for one m×cols HMVP on the given
// accelerator configuration, with host costs from the CPU model.
func HMVPJob(cfg Config, cpu CPU, m, cols int) Job {
	// The engine-side makespan of a single tile stream: jobs are issued
	// per engine, so compute time uses one engine's pipeline.
	one := cfg
	one.NumEngines = 1
	rep := one.SimulateHMVP(m, cols)
	return Job{
		Name:       fmt.Sprintf("hmvp-%dx%d", m, cols),
		H2DBytes:   core.HMVPBytes(cfg.N, cfg.NormalLevels, cfg.FullLevels, m, cols, limbBits, plaintextBits),
		D2HBytes:   int64(ceilDiv(m, cfg.N)) * PolyBytes(cfg.N, 2*cfg.NormalLevels), // one packed ciphertext per tile
		ComputeSec: rep.Seconds(cfg.FreqMHz),
		PrepSec:    cpu.EncryptVectorSeconds(cfg, cols),
		PostSec:    cpu.DecryptVectorSeconds(cfg, m),
	}
}

// OffloadFraction is the share of a job's total work that runs on the
// FPGA — the Fig. 8 ">90% offloaded" metric.
func OffloadFraction(j Job) float64 {
	total := j.ComputeSec + j.PrepSec + j.PostSec
	if total == 0 {
		return 0
	}
	return j.ComputeSec / total
}
