package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cham/internal/obs"
)

// TestSamplerOff pins the disabled fast path: Root returns inert zero
// values and nothing reaches the ring.
func TestSamplerOff(t *testing.T) {
	SetSampleRate(0)
	Reset()
	tc, sp := Root("svc", "op")
	if tc.Sampled() || sp.Active() {
		t.Fatalf("rate 0 minted a sampled trace: ctx=%+v", tc)
	}
	sp.Annotate("ignored")
	sp.End()
	if got := len(Records()); got != 0 {
		t.Fatalf("ring has %d records after unsampled End, want 0", got)
	}
	// Children of an unsampled context stay unsampled and propagate the
	// parent context unchanged.
	child, csp := Start(tc, "svc", "child")
	if child != tc || csp.Active() {
		t.Fatalf("Start on unsampled parent: got ctx %+v active=%v", child, csp.Active())
	}
}

// TestRootAndChildren checks ID minting, parentage, and ring publication
// on the sampled path.
func TestRootAndChildren(t *testing.T) {
	SetSampleRate(1)
	defer SetSampleRate(0)
	Reset()

	tc, root := Root("gateway", "apply")
	if !tc.Sampled() || tc.Trace.IsZero() || tc.Span.IsZero() {
		t.Fatalf("rate 1 did not mint a sampled context: %+v", tc)
	}
	cctx, child := Start(tc, "coordinator", "scatter")
	if cctx.Trace != tc.Trace {
		t.Fatalf("child trace %s, want parent's %s", cctx.Trace, tc.Trace)
	}
	if cctx.Span == tc.Span {
		t.Fatal("child span ID equals parent span ID")
	}
	child.Annotate("2 shards")
	child.End()
	root.EndErr(nil)
	// Ending twice must not double-publish.
	child.End()
	root.End()

	recs := TraceRecords(tc.Trace)
	if len(recs) != 2 {
		t.Fatalf("ring holds %d records for the trace, want 2", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	sc, ok := byName["scatter"]
	if !ok {
		t.Fatalf("scatter span missing from %v", byName)
	}
	if sc.Parent != tc.Span {
		t.Fatalf("scatter parent %s, want root span %s", sc.Parent, tc.Span)
	}
	if sc.Note != "2 shards" {
		t.Fatalf("scatter note %q, want annotation", sc.Note)
	}
}

// TestParseTraceID round-trips the hex form and rejects malformed input.
func TestParseTraceID(t *testing.T) {
	id := newTraceID()
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("round trip failed: %s -> %s ok=%v", id, got, ok)
	}
	for _, bad := range []string{"", "zz", strings.Repeat("g", 32), strings.Repeat("a", 31)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Fatalf("ParseTraceID(%q) accepted malformed input", bad)
		}
	}
}

// TestContextCarriage checks the context.Context bridge used by the
// runtime's job path.
func TestContextCarriage(t *testing.T) {
	SetSampleRate(1)
	defer SetSampleRate(0)
	tc, sp := Root("svc", "op")
	defer sp.End()
	ctx := NewContext(context.Background(), tc)
	if got := FromContext(ctx); got != tc {
		t.Fatalf("FromContext = %+v, want %+v", got, tc)
	}
	// Unsampled contexts are not attached at all.
	if ctx := NewContext(context.Background(), Context{}); FromContext(ctx).Sampled() {
		t.Fatal("unsampled context came back sampled")
	}
	if FromContext(context.Background()).Sampled() {
		t.Fatal("empty context carries a sampled trace")
	}
}

// TestExportRoundTrip covers the record JSON used by /debug/traces and
// chamtrace: marshal → unmarshal is lossless, filters work, and both
// renderers accept the result.
func TestExportRoundTrip(t *testing.T) {
	SetSampleRate(1)
	defer SetSampleRate(0)
	Reset()

	tc, root := Root("gateway", "apply")
	_, child := Start(tc, "server", "serve")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	recs := Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	buf, err := MarshalRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d -> %d", len(recs), len(back))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d changed in round trip:\n  %+v\n  %+v", i, recs[i], back[i])
		}
	}
	if ids := TraceIDs(recs); len(ids) != 1 || ids[0] != tc.Trace {
		t.Fatalf("TraceIDs = %v, want [%s]", ids, tc.Trace)
	}
	if got := FilterTrace(recs, tc.Trace); len(got) != 2 {
		t.Fatalf("FilterTrace kept %d records, want 2", len(got))
	}
	if got := FilterTrace(recs, newTraceID()); len(got) != 0 {
		t.Fatalf("FilterTrace of an unknown trace kept %d records", len(got))
	}

	var sb strings.Builder
	if err := WriteText(&sb, recs); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"gateway", "apply", "server", "serve", "critical path"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text export missing %q:\n%s", want, text)
		}
	}

	chrome, err := ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// Two spans = two async begin/end pairs, plus process-name metadata.
	var b, e, m int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "b":
			b++
		case "e":
			e++
		case "M":
			m++
		}
	}
	if b != 2 || e != 2 || m == 0 {
		t.Fatalf("chrome export has %d begin / %d end / %d metadata events, want 2/2/>0", b, e, m)
	}
}

// TestUnmarshalRecordsDropsMalformed: a merge must survive one node
// returning garbage rows without dropping the good ones.
func TestUnmarshalRecordsDropsMalformed(t *testing.T) {
	good := Record{Trace: newTraceID(), Span: newSpanID(), Service: "s", Name: "n", Start: 1, Dur: 2}
	buf, err := MarshalRecords([]Record{good})
	if err != nil {
		t.Fatal(err)
	}
	// Splice a record with a bad trace ID in front of the good one.
	doctored := strings.Replace(string(buf), "[", `[{"trace":"xyz","span":"0102030405060708","name":"bad"},`, 1)
	back, err := UnmarshalRecords([]byte(doctored))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != good {
		t.Fatalf("got %+v, want just the good record", back)
	}
}

// TestCriticalPath: the critical path follows the latest-ending child
// chain from the longest root.
func TestCriticalPath(t *testing.T) {
	tid := newTraceID()
	root := Record{Trace: tid, Span: newSpanID(), Service: "g", Name: "root", Start: 0, Dur: 100}
	short := Record{Trace: tid, Span: newSpanID(), Parent: root.Span, Service: "s", Name: "short", Start: 5, Dur: 10}
	long := Record{Trace: tid, Span: newSpanID(), Parent: root.Span, Service: "s", Name: "long", Start: 10, Dur: 80}
	leaf := Record{Trace: tid, Span: newSpanID(), Parent: long.Span, Service: "k", Name: "leaf", Start: 20, Dur: 60}
	path := CriticalPath([]Record{root, short, long, leaf})
	var names []string
	for _, r := range path {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, ">"); got != "root>long>leaf" {
		t.Fatalf("critical path %q, want root>long>leaf", got)
	}
}

// TestStageRecorder: accumulated stage durations become one span per
// touched stage; the nil recorder (unsampled apply) is inert.
func TestStageRecorder(t *testing.T) {
	SetSampleRate(1)
	defer SetSampleRate(0)
	Reset()

	tc, sp := Root("server", "serve")
	rec := NewStageRecorder(tc)
	if rec == nil {
		t.Fatal("sampled parent produced a nil recorder")
	}
	if rec.ExemplarLabel() != tc.Trace.String() {
		t.Fatalf("exemplar label %q, want trace id %s", rec.ExemplarLabel(), tc.Trace)
	}
	rec.StageAdd(obs.StageNTT, 5*time.Millisecond)
	rec.StageAdd(obs.StageNTT, 5*time.Millisecond) // concurrent workers accumulate
	rec.StageAdd(obs.StageKeySwitch, 3*time.Millisecond)
	rec.Emit("kernel")
	sp.End()

	recs := TraceRecords(tc.Trace)
	stages := map[string]int64{}
	for _, r := range recs {
		if strings.HasPrefix(r.Name, "stage:") {
			if r.Parent != tc.Span {
				t.Fatalf("stage span %s parented at %s, want serve span %s", r.Name, r.Parent, tc.Span)
			}
			stages[r.Name] = r.Dur
		}
	}
	if stages["stage:"+obs.StageNames[obs.StageNTT]] != int64(10*time.Millisecond) {
		t.Fatalf("ntt stage span = %v, want 10ms aggregate", stages)
	}
	if stages["stage:"+obs.StageNames[obs.StageKeySwitch]] != int64(3*time.Millisecond) {
		t.Fatalf("keyswitch stage span = %v", stages)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d stage spans, want 2 (untouched stages must not emit)", len(stages))
	}

	// The unsampled path: nil recorder, nil-safe Emit.
	if rec := NewStageRecorder(Context{}); rec != nil {
		t.Fatal("unsampled parent produced a recorder")
	}
	var nilRec *StageRecorder
	nilRec.Emit("kernel") // must not panic
}

// TestStageRecorderSink: an unsampled apply's recorder yields a nil
// interface as its sink, never a typed nil the kernel would take for
// tracing on, and Emit on it publishes nothing; a sampled recorder's sink
// is the recorder, so what the kernel adds through it becomes its spans.
func TestStageRecorderSink(t *testing.T) {
	SetSampleRate(1)
	defer SetSampleRate(0)
	Reset()

	unsampled := NewStageRecorder(Context{})
	if sink := unsampled.Sink(); sink != nil {
		t.Fatalf("unsampled recorder's sink is %#v, want a nil interface", sink)
	}
	unsampled.Emit("kernel")
	if recs := Records(); len(recs) != 0 {
		t.Fatalf("Emit on the unsampled recorder published %d records", len(recs))
	}

	tc, sp := Root("chamsim", "apply")
	sink := NewStageRecorder(tc).Sink()
	if sink == nil {
		t.Fatal("sampled recorder's sink is nil")
	}
	sink.StageAdd(obs.StageNTT, 4*time.Millisecond)
	sink.(*StageRecorder).Emit("kernel")
	sp.End()
	var got int64
	for _, r := range TraceRecords(tc.Trace) {
		if r.Name == "stage:"+obs.StageNames[obs.StageNTT] {
			got = r.Dur
		}
	}
	if got != int64(4*time.Millisecond) {
		t.Fatalf("ntt stage span through the sink = %v, want 4ms", time.Duration(got))
	}
}

// TestRingEviction: the ring retains only the newest ringCapacity spans
// and Records tolerates wrap-around.
func TestRingEviction(t *testing.T) {
	SetSampleRate(1)
	defer SetSampleRate(0)
	Reset()
	defer Reset()
	total := ringCapacity + 100
	for i := 0; i < total; i++ {
		_, sp := Root("svc", "op")
		sp.End()
	}
	if got := len(Records()); got != ringCapacity {
		t.Fatalf("ring retained %d records, want %d", got, ringCapacity)
	}
}

// BenchmarkStartUnsampled is the per-hop cost every untraced request
// pays at every span site: it must stay allocation-free.
func BenchmarkStartUnsampled(b *testing.B) {
	SetSampleRate(0)
	parent := Context{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(parent, "svc", "op")
		sp.End()
	}
}

// BenchmarkRootDisabled is the edge cost with the sampler off: one
// atomic load, no allocation.
func BenchmarkRootDisabled(b *testing.B) {
	SetSampleRate(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Root("svc", "op")
		sp.End()
	}
}
