// Package trace is a stdlib-only, sampling, request-scoped tracer for
// the CHAM serving stack. A TraceID is minted at the edge (client or
// gateway) when the probabilistic sampler admits a request; the
// resulting Context travels with the request — through function calls,
// context.Context values, and the trace block of every wire frame — and
// every hop opens Spans under it: client send, gateway,
// coordinator scatter / per-shard RPC, server admission queue /
// coalesced batch / dispatch, runtime card jobs (including RAS
// replays), and the kernel stages bridged from obs.StageClock.
//
// Completed spans are published to a fixed-size lock-free per-process
// ring buffer (see ring.go) and exported as a plain-text span tree or
// Chrome trace-event JSON by /debug/traces (internal/obs/metricshttp)
// and cmd/chamtrace, which merges the rings of many nodes by TraceID.
//
// The off path is engineered to cost nothing: with the sampler at zero
// every entry point is one atomic load, an unsampled Context makes
// Start a single branch returning a dormant Span, and the warm HMVP
// apply stays 0 allocs/op (allocation happens only on the sampled
// path, where a request is already paying for network I/O).
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync/atomic"
	"time"
)

// TraceID names one end-to-end request; all spans of one request share
// it across processes.
type TraceID [16]byte

// SpanID names one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 2*len(t) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, true
}

// FlagSampled marks a context whose spans are recorded. An unsampled
// context is inert: Start returns it unchanged and records nothing.
const FlagSampled = 0x01

// Context is the propagated trace state: which trace the request
// belongs to, the span the next child should hang under, and flags.
// It is a 25-byte value — copying it is free and it maps one-to-one
// onto the wire protocol's trace header.
type Context struct {
	Trace TraceID
	Span  SpanID
	Flags uint8
}

// Sampled reports whether spans under this context are recorded.
func (c Context) Sampled() bool { return c.Flags&FlagSampled != 0 }

// --- sampler ---

// sampleRate holds the float64 bits of the root sampling probability.
var sampleRate atomic.Uint64

// SetSampleRate sets the probability (clamped to [0,1]) that Root mints
// a sampled trace. Zero disables tracing entirely.
func SetSampleRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	sampleRate.Store(floatBits(p))
}

// SampleRate returns the current root sampling probability.
func SampleRate() float64 { return bitsFloat(sampleRate.Load()) }

// --- ID generation ---

// idState seeds a splitmix64 sequence from crypto/rand once per
// process; IDs are then one atomic add plus a few multiplies — cheap,
// collision-resistant across processes, and lock-free.
var idState = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}()

var idCounter atomic.Uint64

func nextID() uint64 {
	x := idState + idCounter.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func newTraceID() (t TraceID) {
	binary.LittleEndian.PutUint64(t[0:8], nextID())
	binary.LittleEndian.PutUint64(t[8:16], nextID())
	return t
}

func newSpanID() (s SpanID) {
	binary.LittleEndian.PutUint64(s[:], nextID())
	return s
}

// --- spans ---

// Span measures one region of one request. It is a value type: an
// inactive span (unsampled request, or sampler off) is the zero value
// and every method on it is a single branch, so call sites need no
// guards of their own. End publishes the span to the process ring.
type Span struct {
	ctx     Context // the span's own context (Span = this span's ID)
	parent  SpanID
	service string
	name    string
	note    string
	start   time.Time
}

// Active reports whether the span is recording.
func (s *Span) Active() bool { return s.ctx.Sampled() }

// Annotate attaches a short free-form note (error text, batch size,
// replay count) rendered next to the span in exports.
func (s *Span) Annotate(note string) {
	if s.ctx.Sampled() {
		s.note = note
	}
}

// End publishes the span. Calling End on an inactive span is a no-op.
func (s *Span) End() {
	if !s.ctx.Sampled() {
		return
	}
	publish(&Record{
		Trace:   s.ctx.Trace,
		Span:    s.ctx.Span,
		Parent:  s.parent,
		Service: s.service,
		Name:    s.name,
		Note:    s.note,
		Start:   s.start.UnixNano(),
		Dur:     time.Since(s.start).Nanoseconds(),
	})
	s.ctx = Context{}
}

// EndErr annotates the span with err (when non-nil) and ends it.
func (s *Span) EndErr(err error) {
	if err != nil && s.ctx.Sampled() {
		s.note = err.Error()
	}
	s.End()
}

// Root starts a new trace if the sampler admits one, returning the root
// span's context and the span. When sampling is off (or the draw
// misses) it returns inert zero values: the caller threads the zero
// Context through the request and every downstream hop stays on the
// one-branch path.
func Root(service, name string) (Context, Span) {
	rate := SampleRate()
	if rate == 0 {
		return Context{}, Span{}
	}
	if rate < 1 && float64(nextID()>>11)/(1<<53) >= rate {
		return Context{}, Span{}
	}
	ctx := Context{Trace: newTraceID(), Span: newSpanID(), Flags: FlagSampled}
	return ctx, Span{ctx: ctx, service: service, name: name, start: time.Now()}
}

// Start opens a child span under parent. For an unsampled parent this
// is one branch and returns the parent unchanged with an inert span.
func Start(parent Context, service, name string) (Context, Span) {
	if !parent.Sampled() {
		return parent, Span{}
	}
	ctx := Context{Trace: parent.Trace, Span: newSpanID(), Flags: parent.Flags}
	return ctx, Span{ctx: ctx, parent: parent.Span, service: service, name: name, start: time.Now()}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
