package cluster

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs/trace"
	"cham/internal/rlwe"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/testutil"
)

// tracedCluster boots 2 shards with cards (so a trace includes runtime job
// spans) behind a gateway, installs keys and a 4096-row matrix through the
// coordinator, and returns a client dialled at the gateway, the matrix and
// an encrypted vector. 4096 rows at N=32 are 128 tiles, so the
// consistent-hash ring puts tiles on both shards and a scatter opens both
// legs.
func tracedCluster(t *testing.T) (*client.Client, [32]byte, []*rlwe.Ciphertext) {
	t.Helper()
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	co, _ := newCluster(t, p, 2, func(c *server.Config) {
		card, err := rt.New(rt.NewDevice(1, 50*time.Microsecond, rt.FaultPlan{}))
		if err != nil {
			t.Fatal(err)
		}
		c.Card = card
	}, nil)
	if _, err := co.SetupKeys(keys); err != nil {
		t.Fatal(err)
	}
	handle, err := co.RegisterMatrix(testutil.Matrix(rng, 4096, 32, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}

	gw, err := NewGateway(GatewayConfig{Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
	})

	cl, err := client.Dial(client.Config{Addr: ln.Addr().String(), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, handle.ID, core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))
}

// TestClusterTraceEndToEnd is the tracing acceptance test (run under
// -race in tier 1): one sampled apply through client → gateway →
// coordinator → 2 shards must land in the span ring as ONE trace whose
// tree covers the gateway, both shard legs, the shard servers' queue /
// dispatch / serve spans, the runtime card job enclosing each serve, and
// the kernel stages.
// Everything runs in-process, so the single ring already holds the
// "merged" view chamtrace assembles from many nodes.
func TestClusterTraceEndToEnd(t *testing.T) {
	trace.Reset()
	trace.SetSampleRate(1)
	defer trace.SetSampleRate(0)
	defer trace.Reset()

	cl, id, ctV := tracedCluster(t)
	tc, sp := trace.Root("test-client", "apply")
	if !tc.Sampled() {
		t.Fatal("rate-1 sampler did not admit the request")
	}
	res, err := cl.ApplyCtx(trace.NewContext(context.Background(), tc), id, ctV)
	sp.EndErr(err)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packed) != 128 {
		t.Fatalf("gathered %d tiles, want 128", len(res.Packed))
	}

	recs := trace.TraceRecords(tc.Trace)
	if len(recs) == 0 {
		t.Fatal("no spans recorded for the sampled trace")
	}
	type key struct{ service, name string }
	seen := map[key]int{}
	kernelStages := 0
	for _, r := range recs {
		if r.Trace != tc.Trace {
			t.Fatalf("span %s/%s carries trace %s, want %s", r.Service, r.Name, r.Trace, tc.Trace)
		}
		seen[key{r.Service, r.Name}]++
		if r.Service == "kernel" && strings.HasPrefix(r.Name, "stage:") {
			kernelStages++
		}
	}
	for _, want := range []key{
		{"test-client", "apply"},
		{"client", "send:Apply"},
		{"gateway", "apply"},
		{"coordinator", "scatter"},
		{"coordinator", "shard:0"},
		{"coordinator", "shard:1"},
		{"coordinator", "gather"},
		{"server", "queue"},
		{"server", "dispatch"},
		{"server", "serve"},
		{"runtime", "job"},
	} {
		if seen[want] == 0 {
			t.Errorf("merged trace is missing the %s/%s span (spans: %v)", want.service, want.name, seen)
		}
	}
	// Both shards ran tiles, so queue/serve spans appear at least twice.
	if n := seen[key{"server", "serve"}]; n < 2 {
		t.Errorf("only %d server serve span(s); both shards should have served tiles", n)
	}
	if kernelStages == 0 {
		t.Error("no kernel stage spans bridged from the StageClock")
	}
	// A shard's card job runs the batch's applies, so every serve span lies
	// inside a job span. The loser of a hedge may still be inside its job
	// when the gathered result arrives, so its job span can end later.
	var outside []trace.Record
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if outside = servesOutsideJobs(trace.TraceRecords(tc.Trace)); len(outside) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, r := range outside {
		t.Errorf("server/serve span %s [%d, %d] lies inside no runtime/job span", r.Span, r.Start, r.End())
	}

	// The text renderer must produce one tree with a critical path.
	var sb strings.Builder
	if err := trace.WriteText(&sb, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "critical path") {
		t.Fatalf("text export lacks a critical path:\n%s", sb.String())
	}
}

// servesOutsideJobs lists the server/serve spans of recs that lie inside
// no runtime/job span.
func servesOutsideJobs(recs []trace.Record) []trace.Record {
	var out []trace.Record
	for _, r := range recs {
		if r.Service != "server" || r.Name != "serve" {
			continue
		}
		inside := false
		for _, j := range recs {
			if j.Service == "runtime" && j.Name == "job" && j.Start <= r.Start && r.End() <= j.End() {
				inside = true
			}
		}
		if !inside {
			out = append(out, r)
		}
	}
	return out
}

// TestClusterTraceRateZero: with the sample rate 0 in every process, as
// every binary defaults to, a caller's sampled trace context still crosses
// the gateway and both shard legs. Whether a hop forwards it depends on
// nothing local: not the rate, not when its connections were dialed.
func TestClusterTraceRateZero(t *testing.T) {
	trace.Reset()
	trace.SetSampleRate(0)
	defer trace.Reset()

	cl, id, ctV := tracedCluster(t)
	tc := trace.Context{Flags: trace.FlagSampled}
	copy(tc.Trace[:], "rate-zero caller")
	copy(tc.Span[:], "caller")
	if _, err := cl.ApplyCtx(trace.NewContext(context.Background(), tc), id, ctV); err != nil {
		t.Fatal(err)
	}

	// A shard ends its dispatch span after it has replied, so the trace
	// may complete a moment after the gathered result arrives.
	var missing []string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if missing = missingRateZeroSpans(tc); len(missing) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, m := range missing {
		t.Error(m)
	}
}

// missingRateZeroSpans lists what the trace tc should hold and does not:
// the gateway's apply span under the client's attempt, both shard legs,
// and under each leg's RPC that shard's queue, dispatch and serve spans.
func missingRateZeroSpans(tc trace.Context) []string {
	children := map[trace.SpanID][]trace.Record{}
	for _, r := range trace.TraceRecords(tc.Trace) {
		children[r.Parent] = append(children[r.Parent], r)
	}
	// served maps each shard leg under the gateway's apply span to the
	// server spans found under its RPCs (a hedged leg's name repeats).
	served := map[string]map[string]bool{}
	var walk func(id trace.SpanID)
	walk = func(id trace.SpanID) {
		for _, r := range children[id] {
			if r.Service == "coordinator" && strings.HasPrefix(r.Name, "shard:") {
				if served[r.Name] == nil {
					served[r.Name] = map[string]bool{}
				}
				for _, rpc := range children[r.Span] {
					for _, s := range children[rpc.Span] {
						if s.Service == "server" {
							served[r.Name][s.Name] = true
						}
					}
				}
			}
			walk(r.Span)
		}
	}
	gateway := false
	for _, send := range children[tc.Span] { // the client's attempt
		for _, r := range children[send.Span] {
			if r.Service == "gateway" && r.Name == "apply" {
				gateway = true
				walk(r.Span)
			}
		}
	}
	if !gateway {
		return []string{"no gateway/apply span under the caller's request"}
	}
	var missing []string
	for _, leg := range []string{"shard:0", "shard:1"} {
		if served[leg] == nil {
			missing = append(missing, "no coordinator/"+leg+" span under the gateway's")
			continue
		}
		for _, name := range []string{"queue", "dispatch", "serve"} {
			if !served[leg][name] {
				missing = append(missing, "no server/"+name+" span under "+leg)
			}
		}
	}
	return missing
}
