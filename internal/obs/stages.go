package obs

import "time"

// The HMVP stage taxonomy (DESIGN.md §7/§9): the paper's nine pipeline
// stages plus the hoisted digit-decomposition split of the key switch —
// ten stages in all. RESCALE (moddown) is charged only by the pack tree:
// the row apply defers its divisions to the tree flush. In a Prepare the
// Shoup companion pass over a row is charged to ntt — it is a by-product
// of the transform and fused with it — so encode + lift + ntt add up to
// the Prepare span with no sweep left uncharged. These indices and
// names are the single source of truth shared by the instrumented kernels
// (internal/core, internal/lwe), the exposition format, cmd/chamtop, and
// the documentation: a stage renamed here renames everywhere.
const (
	StageEncode      = iota // row coefficient encoding (Eq. 1)
	StageLift               // CRT lift to the augmented basis
	StageNTT                // forward transforms (rows + vector chunks) and, in Prepare, each row's Shoup companion pass
	StageRowMul             // MULTPOLY multiply-accumulate (Eq. 2)
	StageINTT               // inverse transform of the accumulator
	StageExtract            // EXTRACTLWES constant-coefficient extraction (Eq. 3)
	StagePack               // PACKTWOLWES tree arithmetic (Alg. 2/3)
	StageDecompose          // hoisted RNS digit decomposition + digit NTTs
	StageKeySwitch          // automorphism key-switch accumulation inside packing
	StagePackModDown        // pack-tree RESCALE: per-merge a-part + deferred flush of both parts
	NumStages
)

// StageNames maps stage indices to their metric label values.
var StageNames = [NumStages]string{
	"encode", "lift", "ntt", "row_mul", "intt",
	"extract", "pack", "decompose", "key_switch", "moddown",
}

// stageHists holds the per-stage latency histograms of the
// cham_hmvp_stage_seconds family, registered eagerly so a scrape shows
// every stage from process start.
var stageHists = func() [NumStages]*Histogram {
	var hs [NumStages]*Histogram
	for i := 0; i < NumStages; i++ {
		hs[i] = GetHistogram("cham_hmvp_stage_seconds",
			"Wall time spent in each HMVP pipeline stage (DESIGN.md taxonomy).",
			DefBuckets, "stage", StageNames[i])
	}
	return hs
}()

// StageSink receives per-stage durations from a StageClock flush in
// addition to (or instead of) the histograms. internal/obs/trace's
// StageRecorder implements it to turn kernel stage timings into spans
// of a sampled request; the interface lives here so core can thread a
// sink through pooled scratch without obs depending on trace.
type StageSink interface {
	// StageAdd accumulates d into stage. Implementations must be
	// safe for concurrent use: the parallel row loop flushes worker
	// clocks into one sink.
	StageAdd(stage int, d time.Duration)
	// ExemplarLabel returns the exemplar label (a hex trace ID)
	// attached to histogram observations made under this sink.
	ExemplarLabel() string
}

// StageClock attributes wall time to pipeline stages with one time.Now
// per transition, accumulating locally and publishing once per Flush so
// a row touching a stage many times (once per column chunk) costs one
// histogram observation. Embed it in pooled scratch — it is sized for
// the stack/arena, never the heap — and drive it Start → Mark* → Flush.
// When collection is off, Start leaves it dormant and every method is a
// single branch; an attached StageSink (sampled request tracing) arms
// it regardless, so traced requests get stage spans even with the
// metrics registry disabled.
type StageClock struct {
	on   bool
	sink StageSink
	last time.Time
	acc  [NumStages]time.Duration
}

// Attach routes subsequent flushes into sink (nil detaches). The clock
// lives in pooled scratch: callers attach for one traced apply and must
// detach before the scratch is pooled again.
func (c *StageClock) Attach(sink StageSink) { c.sink = sink }

// Start arms the clock for one instrumented region.
func (c *StageClock) Start() {
	c.on = On() || c.sink != nil
	if !c.on {
		return
	}
	for i := range c.acc {
		c.acc[i] = 0
	}
	c.last = time.Now()
}

// Mark charges the time since the previous mark to stage.
func (c *StageClock) Mark(stage int) {
	if !c.on {
		return
	}
	now := time.Now()
	c.acc[stage] += now.Sub(c.last)
	c.last = now
}

// Skip discards the time since the previous mark (un-attributed work).
func (c *StageClock) Skip() {
	if !c.on {
		return
	}
	c.last = time.Now()
}

// Flush publishes every stage that accumulated time and disarms the
// clock. With a sink attached the durations also feed the sink, and
// histogram observations carry the sink's exemplar label so a scrape
// can link a slow bucket to a concrete sampled TraceID.
func (c *StageClock) Flush() {
	if !c.on {
		return
	}
	hist := On()
	for i, d := range c.acc {
		if d <= 0 {
			continue
		}
		if c.sink != nil {
			c.sink.StageAdd(i, d)
			if hist {
				stageHists[i].ObserveExemplar(d.Seconds(), c.sink.ExemplarLabel())
			}
		} else if hist {
			stageHists[i].Observe(d.Seconds())
		}
	}
	c.on = false
}
