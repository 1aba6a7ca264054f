package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, as the traced run records it from
// outside: spans of one operation share Op, and Parent names the span
// (by ID within that operation) that caused it; the operation's root has
// Parent -1.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory, one slice per caller lane so the hot
// path takes no lock; a lane is only ever written by the goroutine that
// currently holds it. A nil recorder records nothing, which is the
// untraced run.
type recorder struct {
	t0    time.Time
	lanes [][]span
}

func newRecorder(lanes int) *recorder {
	return &recorder{t0: time.Now(), lanes: make([][]span, lanes)}
}

// opTrace is the handle one operation records its spans through.
type opTrace struct {
	rec  *recorder
	lane int
	op   int
	root int // index of the root span in the lane
	next int // next span ID within the operation
}

// startOp opens the root span of operation op on a lane.
func (r *recorder) startOp(lane, op int) opTrace {
	t := opTrace{rec: r, lane: lane, op: op}
	if r == nil {
		return t
	}
	t.root = len(r.lanes[lane])
	r.lanes[lane] = append(r.lanes[lane], span{Op: op, ID: 0, Parent: -1, Name: "op", Start: int64(time.Since(r.t0))})
	t.next = 1
	return t
}

// begin opens a child of the operation's root and returns its handle.
func (t *opTrace) begin(name string) int {
	if t.rec == nil {
		return -1
	}
	l := t.rec.lanes[t.lane]
	t.rec.lanes[t.lane] = append(l, span{Op: t.op, ID: t.next, Parent: 0, Name: name, Start: int64(time.Since(t.rec.t0))})
	t.next++
	return len(l)
}

// end closes the span begin returned.
func (t *opTrace) end(h int) {
	if t.rec == nil {
		return
	}
	t.rec.lanes[t.lane][h].End = int64(time.Since(t.rec.t0))
}

// finish closes the operation's root span.
func (t *opTrace) finish() { t.end(t.root) }

// spans returns every recorded span ordered by start time.
func (r *recorder) spans() []span {
	var all []span
	for _, l := range r.lanes {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// selfTimes returns, per operation, the root span's self time in
// nanoseconds: its duration minus the part of that interval its child
// spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ s, e int64 }
	roots := map[int]span{}
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent < 0 {
			roots[s.Op] = s
		} else if s.Parent == 0 {
			kids[s.Op] = append(kids[s.Op], iv{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(roots))
	for op, root := range roots {
		ks := kids[op]
		sort.Slice(ks, func(i, j int) bool { return ks[i].s < ks[j].s })
		covered, cursor := int64(0), root.Start
		for _, k := range ks {
			s, e := k.s, k.e
			if s < cursor {
				s = cursor
			}
			if e > root.End {
				e = root.End
			}
			if e > s {
				covered += e - s
				cursor = e
			}
		}
		out[op] = (root.End - root.Start) - covered
	}
	return out
}

// spanDurationsMs collects the durations of every span with the given name.
func spanDurationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// traceFile is the on-disk form of one workload's traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
