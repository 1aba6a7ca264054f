package obs

import "time"

// The HMVP stage taxonomy (DESIGN.md §7/§9): the paper's pipeline stages
// plus the hoisted digit-decomposition split of the key switch — nine
// stages in all. RESCALE (moddown) is charged only by the pack tree: the
// row apply defers its divisions to the tree flush, whose inverse
// transforms carry them (charged to intt). A Prepare encodes each row
// chunk into its slab's first limb (charged to encode), then transforms it
// into every limb, the centred lift riding each transform's first pass
// (ntt), and splits each first-level row pair of the packing tree (pack),
// so encode + ntt + pack add up to the Prepare span with no sweep left
// uncharged. In an apply the conversion of
// the vector chunks' A half to Montgomery form is charged to row_mul, the
// stage it serves. These indices and names are the single source of truth shared
// by the instrumented kernels (internal/core, internal/lwe), the
// exposition format, cmd/chamtop, and the documentation: a stage renamed
// here renames everywhere.
const (
	StageEncode      = iota // row coefficient encoding (Eq. 1)
	StageNTT                // forward transforms (rows, centred-lifting as they load, + vector chunks)
	StageRowMul             // MULTPOLY multiply-accumulate (Eq. 2), the B half's dot product included, and the chunks' Montgomery form
	StageINTT               // inverse transforms of the flushed accumulators, ModDown in their last pass
	StageExtract            // EXTRACTLWES (Eq. 3): the dot products' reduction and N^-1 per limb, and the constant fill of a first-level node's (or one-row tile's leaf's) BT
	StagePack               // PACKTWOLWES tree arithmetic (Alg. 2/3), Prepare's row-pair splits included
	StageDecompose          // hoisted RNS digit decomposition + digit NTTs
	StageKeySwitch          // automorphism key-switch accumulation inside packing
	StagePackModDown        // pack-tree RESCALE of each merge's a-part, its inverse transforms included
	NumStages
)

// StageNames maps stage indices to their metric label values.
var StageNames = [NumStages]string{
	"encode", "ntt", "row_mul", "intt",
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
// addition to the histograms. internal/obs/trace's
// StageRecorder implements it to turn kernel stage timings into spans
// of a sampled request; the interface lives here so core can thread a
// sink through pooled scratch without obs depending on trace.
type StageSink interface {
	// StageAdd accumulates d into stage. Implementations must be
	// safe for concurrent use: one sink may be attached to clocks that
	// flush on several goroutines.
	StageAdd(stage int, d time.Duration)
	// ExemplarLabel returns the exemplar label (a hex trace ID)
	// attached to histogram observations made under this sink.
	ExemplarLabel() string
}

// StageClock attributes wall time to pipeline stages with one monotonic
// clock reading per transition, accumulating locally and publishing once
// per Flush, so a region touching a stage many times — every row and
// merge of a fold — costs one histogram observation per stage. Embed it in pooled scratch
// — it is sized for the stack/arena, never the heap — and drive it
// Skip → Mark* → Flush, re-anchoring with Skip wherever un-attributed
// work (a wait, a copy) precedes the next stage. An attached StageSink
// (sampled request tracing) receives the same flush.
type StageClock struct {
	sink StageSink
	last time.Duration // monotonic reading of the previous mark
	acc  [NumStages]time.Duration
}

// epoch anchors StageClock readings: time.Since on it reads only the
// monotonic clock, about half the cost of a time.Now, which also reads
// the wall clock. A fold takes one reading per stage transition.
var epoch = time.Now()

// Attach routes subsequent flushes into sink (nil detaches). The clock
// lives in pooled scratch: callers attach for one traced apply and must
// detach before the scratch is pooled again.
func (c *StageClock) Attach(sink StageSink) { c.sink = sink }

// Skip anchors the clock now, discarding the time since the previous
// mark: it starts a timed region and re-anchors one past un-attributed
// work.
func (c *StageClock) Skip() { c.last = time.Since(epoch) }

// Mark charges the time since the previous mark to stage.
func (c *StageClock) Mark(stage int) {
	now := time.Since(epoch)
	c.acc[stage] += now - c.last
	c.last = now
}

// Flush publishes every stage that accumulated time and clears the
// accumulators. With a sink attached the durations also feed the sink,
// and the histogram observations carry the sink's exemplar label so a
// scrape can link a slow bucket to a concrete sampled TraceID.
func (c *StageClock) Flush() {
	for i, d := range c.acc {
		if d <= 0 {
			continue
		}
		c.acc[i] = 0
		if c.sink != nil {
			c.sink.StageAdd(i, d)
			stageHists[i].ObserveExemplar(d.Seconds(), c.sink.ExemplarLabel())
		} else {
			stageHists[i].Observe(d.Seconds())
		}
	}
}
