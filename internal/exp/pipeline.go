package exp

import (
	"fmt"
	"math/bits"
)

// Cycle-level performance model of the CHAM accelerator: the 9-stage
// macro-pipeline of Fig. 1a with per-stage NTT unit allocations (forward,
// inverse, pack key-switch), PPU lanes for the coefficient-wise stages,
// and the reduce buffer whose back-pressure preempts the front of the
// pipeline (§III-A).
//
// Latencies are exact cycle counts derived from the functional-unit
// models; wall-clock numbers follow from the device clock (300 MHz). The
// model reproduces the §V-B throughput claims (65k key switches/s, the
// 195k composite NTT ops/s of the 60-unit device) and generates the CHAM
// series of Figs. 6 and 8.

// limbBits are the packed storage widths of the CHAM RNS basis: two 35-bit
// ciphertext limbs and the 39-bit special limb.
var limbBits = []int{35, 35, 39}

// plaintextBits is the width of the plaintext modulus t = 65537.
const plaintextBits = 17

// Config fixes the simulated hardware instance.
type Config struct {
	N            int
	NormalLevels int // ciphertext limbs (2)
	FullLevels   int // with the special modulus (3)
	Engine       EngineConfig
	NumEngines   int
	FreqMHz      float64
	// ReduceBufferSlots is the capacity of the pack reduce buffer: how far
	// (in finished dot-product rows) the front of the pipeline may run
	// ahead of the PACKTWOLWES unit before being preempted.
	ReduceBufferSlots int
}

// ChamConfig returns the published instance, the design point every model
// reads: N = 4096 over two ciphertext limbs plus the special limb, 2
// engines, 30 NTT units each (6 per stage-1 slice), 4-BFU
// constant-geometry NTTs, 1 pack unit, 300 MHz.
func ChamConfig() Config {
	c := Config{
		N:                 4096,
		NormalLevels:      2,
		FullLevels:        3,
		Engine:            EngineConfig{NTTPerStage: 6, NBF: 4, NumPack: 1, Strategy: BRAMOnly},
		NumEngines:        2,
		FreqMHz:           300,
		ReduceBufferSlots: 16,
	}
	c.Engine.N = c.N
	return c
}

// TransformCycles is the latency of one single-limb NTT on one unit.
func (c Config) TransformCycles() int { return NTTLatency(c.N, c.Engine.NBF) }

// ppuLanes is the coefficient-per-cycle width of the PPU array, scaled
// with the butterfly parallelism to keep stages balanced (§III-B).
func (c Config) ppuLanes() int { return 8 * c.Engine.NBF }

// DotRowCycles returns the per-row service time of stages 1-4 for a row
// spanning `chunks` vector ciphertexts: plaintext forward transforms on
// the stage-1 allocation, inverse transforms on the stage-3 allocation,
// and the MULTPOLY/RESCALE/EXTRACT coefficient passes on the PPU lanes;
// the slowest stage paces the row cadence.
func (c Config) DotRowCycles(chunks int) int {
	fwdAlloc, invAlloc, _ := c.Engine.StageAlloc()
	fwd := ceilDiv(c.FullLevels*chunks*c.TransformCycles(), fwdAlloc)
	inv := ceilDiv(2*c.FullLevels*c.TransformCycles(), invAlloc)
	coeffPasses := 2*c.FullLevels*chunks + 2*c.NormalLevels + 1
	ppu := ceilDiv(coeffPasses*c.N, c.ppuLanes())
	return max(max(fwd, inv), ppu)
}

// MergeCycles is the service time of one PACKTWOLWES reduction. The
// hybrid key switch dominates: 18 limb transforms (6 digit forwards, 6
// inverses, 6 staging re-transforms for the next tree level) on the pack
// stage's NTT allocation; monomial multiply, add/sub, the serial
// AUTOMORPH and ModDown run on PPU lanes underneath.
func (c Config) MergeCycles() int {
	_, _, packAlloc := c.Engine.StageAlloc()
	transforms := 3 * c.NormalLevels * c.FullLevels
	ntt := ceilDiv(transforms*c.TransformCycles(), packAlloc)
	coeffPasses := 6 + 2*c.NormalLevels*c.FullLevels + 2*c.NormalLevels
	ppu := ceilDiv(coeffPasses*c.N, c.ppuLanes())
	// Extra PACKTWOLWES units parallelize the coefficient-wise side of
	// independent reductions; the key-switch transforms still serialize on
	// the pack stage's NTT allocation, so NumPack only helps PPU-bound
	// configurations.
	return max(ntt, ceilDiv(ppu, max(c.Engine.NumPack, 1)))
}

// CycleReport describes one simulated HMVP tile or matrix.
type CycleReport struct {
	Rows        int
	Chunks      int
	DotCycles   int64 // aggregate stage 1-4 work
	PackCycles  int64 // aggregate stage 5-9 work
	TotalCycles int64 // simulated makespan, one engine
	StallCycles int64 // dot-product preemption from reduce-buffer pressure
	Merges      int
}

// Seconds converts the makespan to wall-clock time at the configured clock.
func (r CycleReport) Seconds(freqMHz float64) float64 {
	return float64(r.TotalCycles) / (freqMHz * 1e6)
}

// SimulateTile runs one packing tile (rows ≤ N, padded to a power of two)
// through the macro-pipeline of a single engine: rows stream through the
// dot-product stages while the pack unit reduces the binary tree; a row
// may start only when the reduce buffer has space for its LWE, otherwise
// the front of the pipeline stalls (the paper's preemption).
func (c Config) SimulateTile(rows, chunks int) CycleReport {
	if rows < 1 || rows > c.N {
		panic(fmt.Sprintf("exp: rows=%d out of range [1,%d]", rows, c.N))
	}
	if chunks < 1 {
		chunks = 1
	}
	mPad := nextPow2(rows)
	if c.ReduceBufferSlots < 2 {
		panic("exp: reduce buffer needs at least 2 slots")
	}
	dotT := int64(c.DotRowCycles(chunks))
	mergeT := int64(c.MergeCycles())

	rep := CycleReport{Rows: rows, Chunks: chunks, Merges: mPad - 1}

	// One-time vector forward transforms on the stage-1 allocation.
	fwdAlloc, _, _ := c.Engine.StageAlloc()
	vecT := int64(ceilDiv(2*c.FullLevels*chunks*c.TransformCycles(), fwdAlloc))

	var (
		now      = vecT  // dot-product front clock
		packFree int64   // pack unit busy-until
		held     []int64 // per-level pending partial (0 = empty)
		l0Start  []int64 // start times of level-0 merges, in order
	)
	for i := 0; i < mPad; i++ {
		// Reduce-buffer back-pressure: row i may not start before the
		// level-0 merge consuming row i-slots has begun.
		if k := (i - c.ReduceBufferSlots) / 2; k >= 0 && k < len(l0Start) {
			if s := l0Start[k]; s > now {
				rep.StallCycles += s - now
				now = s
			}
		}
		var ready int64
		if i < rows {
			now += dotT
			rep.DotCycles += dotT
			ready = now
		} else {
			ready = now // zero-pad leaves are free
		}
		// Carry-propagate merges up the binary counter.
		for level := 0; ; level++ {
			if level == len(held) {
				held = append(held, 0)
			}
			if held[level] == 0 {
				held[level] = max(ready, 1)
				break
			}
			start := max(max(held[level], ready), packFree)
			if level == 0 {
				l0Start = append(l0Start, start)
			}
			packFree = start + mergeT
			rep.PackCycles += mergeT
			held[level] = 0
			ready = packFree
		}
	}
	rep.TotalCycles = max(now, packFree)
	return rep
}

// SimulateHMVP runs a full m×cols matrix: tiles of up to N rows, spread
// round-robin over the engines (each tile packs independently).
func (c Config) SimulateHMVP(m, cols int) CycleReport {
	n := c.N
	chunks := ceilDiv(max(cols, 1), n)
	var agg CycleReport
	agg.Chunks = chunks
	agg.Rows = m
	engineLoad := make([]int64, max(c.NumEngines, 1))
	ti := 0
	for base := 0; base < m; base += n {
		rows := min(m-base, n)
		rep := c.SimulateTile(rows, chunks)
		agg.DotCycles += rep.DotCycles
		agg.PackCycles += rep.PackCycles
		agg.StallCycles += rep.StallCycles
		agg.Merges += rep.Merges
		engineLoad[ti%len(engineLoad)] += rep.TotalCycles
		ti++
	}
	for _, l := range engineLoad {
		if l > agg.TotalCycles {
			agg.TotalCycles = l
		}
	}
	return agg
}

// ThroughputRowsPerSec returns the device HMVP throughput in matrix rows
// per second.
func (c Config) ThroughputRowsPerSec(m, cols int) float64 {
	rep := c.SimulateHMVP(m, cols)
	return float64(m) / rep.Seconds(c.FreqMHz)
}

// KeySwitchOpsPerSec is the standalone key-switch throughput of the device
// (§V-B.1's 65k ops/s claim: one merge-equivalent key switch per
// MergeCycles per engine).
func (c Config) KeySwitchOpsPerSec() float64 {
	return float64(c.NumEngines) * c.FreqMHz * 1e6 / float64(c.MergeCycles())
}

// NTTOpsPerSec is the composite NTT throughput the paper quotes: the
// device's aggregate transform bandwidth expressed in 15-transform
// pt×ct-multiply bundles (3 plaintext forwards + 6 forwards / 6 inverses
// of the augmented ciphertext).
func (c Config) NTTOpsPerSec() float64 {
	return c.RawTransformsPerSec() / 15
}

// RawTransformsPerSec is the total single-limb transform bandwidth of all
// NTT units on the device.
func (c Config) RawTransformsPerSec() float64 {
	units := c.NumEngines * c.Engine.TotalNTT()
	return float64(units) * c.FreqMHz * 1e6 / float64(c.TransformCycles())
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
func nextPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}
