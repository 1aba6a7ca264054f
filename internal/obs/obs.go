// Package obs is a dependency-free, low-overhead telemetry layer for the
// CHAM software stack: atomic counters, gauges, and fixed-bucket latency
// histograms collected in a process-global Registry, exposed as
// Prometheus text (WriteTo), structured snapshots (Snapshot), or parsed
// back from a scrape (ParseText, used by cmd/chamtop).
//
// Collection is always on; there is no switch. Metric handles are
// resolved once at package init — never in a hot loop — so an
// observation is a time.Now call plus a few atomic adds and never
// allocates (TestEnabledModeZeroAllocs). The kernels' stage clocks
// publish once per Prepare, fold or tree flush, not once per row or
// merge, which keeps the hot path's telemetry to a time.Now per stage
// transition (DESIGN.md §9 has the measured cost).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterF is a monotonically increasing float metric (e.g. busy
// seconds); increments are lock-free CAS loops.
type CounterF struct{ bits atomic.Uint64 }

// Add increases the counter by d (d must be >= 0).
func (c *CounterF) Add(d float64) { atomicAddFloat(&c.bits, d) }

// Value reads the current total.
func (c *CounterF) Value() float64 { return floatFromBits(c.bits.Load()) }

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatToBits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) { atomicAddFloat(&g.bits, d) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// v <= Upper[i]; one implicit +Inf bucket catches the rest. Observations
// are three atomic operations and never allocate.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	ex     atomic.Pointer[Exemplar]
}

// Exemplar links one recent observation of a histogram to the sampled
// trace that produced it (OpenMetrics-style), so a slow bucket on a
// dashboard resolves to a concrete TraceID in /debug/traces.
type Exemplar struct {
	Label string  // hex trace ID
	Value float64 // the exemplified observation
	TS    int64   // UnixNano at observation
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i].Add(1)
	atomicAddFloat(&h.sum, v)
}

// ObserveExemplar records one value and retains it as the histogram's
// exemplar under label (a sampled trace ID). Only traced observations
// call this, so the untraced hot path never touches the pointer slot.
func (h *Histogram) ObserveExemplar(v float64, label string) {
	h.Observe(v)
	if label != "" {
		h.ex.Store(&Exemplar{Label: label, Value: v, TS: time.Now().UnixNano()})
	}
}

// Exemplar returns the most recent exemplar, or nil.
func (h *Histogram) Exemplar() *Exemplar { return h.ex.Load() }

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts
// by linear interpolation inside the holding bucket — the standard
// Prometheus histogram_quantile estimate. Observations beyond the last
// finite bound clamp to it; an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			if i == len(h.upper) { // +Inf bucket: clamp to last finite bound
				return h.upper[len(h.upper)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			inBucket := float64(c)
			if inBucket == 0 {
				return h.upper[i]
			}
			frac := (rank - float64(cum-c)) / inBucket
			return lo + (h.upper[i]-lo)*frac
		}
	}
	return h.upper[len(h.upper)-1]
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return floatFromBits(h.sum.Load()) }

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: invalid ExpBuckets parameters")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefBuckets spans 1 µs to ~4 s in powers of four — wide enough for a
// single NTT at N=256 and a full multi-tile apply at N=4096.
var DefBuckets = ExpBuckets(1e-6, 4, 12)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterF
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterF:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a family name plus a fixed label set.
type metric struct {
	name   string
	help   string
	labels [][2]string
	kind   metricKind
	c      *Counter
	cf     *CounterF
	g      *Gauge
	h      *Histogram
}

// Registry holds a set of metrics. The zero value is unusable; use
// NewRegistry or the process-global Default.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	all   []*metric
}

// NewRegistry returns an empty registry (tests use private ones; the
// instrumented packages share Default).
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry every instrumented package
// registers into.
func Default() *Registry { return defaultRegistry }

// key builds the lookup key for a name + label set.
func seriesKey(name string, labels [][2]string) string {
	k := name
	for _, l := range labels {
		k += "\x00" + l[0] + "\x01" + l[1]
	}
	return k
}

// pairLabels converts alternating key,value strings.
func pairLabels(kv []string) [][2]string {
	if len(kv)%2 != 0 {
		panic("obs: labels must come in key,value pairs")
	}
	out := make([][2]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, [2]string{kv[i], kv[i+1]})
	}
	return out
}

// lookup returns the existing metric for the series or registers the one
// built by mk. Kind mismatches are programmer errors and panic.
func (r *Registry) lookup(name, help string, kind metricKind, kv []string, mk func(*metric)) *metric {
	labels := pairLabels(kv)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: labels, kind: kind}
	mk(m)
	r.byKey[key] = m
	r.all = append(r.all, m)
	return m
}

// Counter returns (registering if needed) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, kindCounter, labels, func(m *metric) { m.c = &Counter{} }).c
}

// CounterF returns the float counter series name{labels}.
func (r *Registry) CounterF(name, help string, labels ...string) *CounterF {
	return r.lookup(name, help, kindCounterF, labels, func(m *metric) { m.cf = &CounterF{} }).cf
}

// Gauge returns the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram returns the histogram series name{labels} with the given
// bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	m := r.lookup(name, help, kindHistogram, labels, func(m *metric) {
		m.h = &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
	})
	return m.h
}

// GetCounter, GetCounterF, GetGauge and GetHistogram are the Default()
// shorthand the instrumented packages use at init time.
func GetCounter(name, help string, labels ...string) *Counter {
	return defaultRegistry.Counter(name, help, labels...)
}

func GetCounterF(name, help string, labels ...string) *CounterF {
	return defaultRegistry.CounterF(name, help, labels...)
}

func GetGauge(name, help string, labels ...string) *Gauge {
	return defaultRegistry.Gauge(name, help, labels...)
}

func GetHistogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return defaultRegistry.Histogram(name, help, buckets, labels...)
}

// Span measures one region into a histogram. Span is a value type:
// starting and ending one never allocates.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// StartSpan begins timing into h.
func StartSpan(h *Histogram) Span { return Span{h: h, t0: time.Now()} }

// End records the elapsed seconds.
func (s Span) End() { s.h.Observe(time.Since(s.t0).Seconds()) }

// --- float-bits atomics ---

func floatToBits(f float64) uint64   { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

func atomicAddFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, floatToBits(floatFromBits(old)+d)) {
			return
		}
	}
}
