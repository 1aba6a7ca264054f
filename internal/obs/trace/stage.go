package trace

import (
	"sync/atomic"
	"time"

	"cham/internal/obs"
)

// StageRecorder bridges the kernel's obs.StageClock taxonomy into a
// sampled trace: core attaches it (via StageClock.Attach) to the
// pooled apply/row scratch clocks for the duration of one traced
// apply, the parallel row workers flush their per-stage durations into
// it with atomic adds, and Emit turns the aggregate into one span per
// touched stage under the request's serve span.
//
// Stage spans are aggregates across workers and tiles — their
// durations sum wall time attributed to each stage, laid out
// back-to-back from the apply start so exports read in pipeline order
// rather than as true intervals (the kernel interleaves stages per row;
// per-interval fidelity would cost the hot path).
type StageRecorder struct {
	parent Context
	label  string // hex trace ID, precomputed once for exemplars
	base   time.Time
	acc    [obs.NumStages]atomic.Int64
}

// NewStageRecorder returns a recorder for one traced apply under
// parent, or nil for an unsampled parent (the kernel treats a nil sink
// as tracing off).
func NewStageRecorder(parent Context) *StageRecorder {
	if !parent.Sampled() {
		return nil
	}
	return &StageRecorder{parent: parent, label: parent.Trace.String(), base: time.Now()}
}

// Sink returns the recorder as the kernel's stage sink: nil for the nil
// recorder of an unsampled apply, never a typed-nil interface, which the
// kernel would take for tracing on and dereference.
func (r *StageRecorder) Sink() obs.StageSink {
	if r == nil {
		return nil
	}
	return r
}

// StageAdd accumulates d into stage (obs.StageSink).
func (r *StageRecorder) StageAdd(stage int, d time.Duration) {
	r.acc[stage].Add(int64(d))
}

// ExemplarLabel returns the trace ID attached to histogram
// observations made during this apply (obs.StageSink).
func (r *StageRecorder) ExemplarLabel() string { return r.label }

// Emit publishes one span per stage that accumulated time, as children
// of the recorder's parent span under the given service name.
func (r *StageRecorder) Emit(service string) {
	if r == nil {
		return
	}
	start := r.base.UnixNano()
	for i := 0; i < obs.NumStages; i++ {
		d := r.acc[i].Load()
		if d <= 0 {
			continue
		}
		publish(&Record{
			Trace:   r.parent.Trace,
			Span:    newSpanID(),
			Parent:  r.parent.Span,
			Service: service,
			Name:    "stage:" + obs.StageNames[i],
			Note:    "aggregate across workers",
			Start:   start,
			Dur:     d,
		})
		start += d
	}
}
