package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cham/internal/client"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/server"
	"cham/internal/wire"
)

// GatewayConfig shapes a Gateway.
type GatewayConfig struct {
	// Coordinator owns the shard map (required).
	Coordinator *Coordinator
}

var mGatewayConns = obs.GetGauge("cham_cluster_gateway_connections",
	"Open client connections on the cluster gateway.")

// Gateway is the cluster's wire-compatible front door: chamserve's front
// end (server.FrontEnd — listener, frame loop, handshake, drain barrier,
// per-request deadline) with the coordinator behind it instead of a
// queue, so an unmodified client sees one big server while the work is
// scattered across shards. Control-plane messages are broadcast to every
// node; Apply is scatter/gather on a goroutine of its own, so the
// connection's read loop goes on and a caller's hang-up cancels the
// scatter's legs. Shutdown drains the gateway only; the shard nodes
// belong to their own processes.
type Gateway struct {
	server.FrontEnd
	co *Coordinator
}

// NewGateway builds a gateway over a coordinator.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	co := cfg.Coordinator
	if co == nil {
		return nil, fmt.Errorf("cluster: GatewayConfig.Coordinator is required")
	}
	g := &Gateway{co: co, FrontEnd: server.FrontEnd{
		Params: co.cfg.Params,
		// No scatter leg outlives the node clients' request timeout, so no
		// request is worth holding longer.
		DefaultDeadline: client.DefaultRequestTimeout,
		Log:             co.cfg.Log,
		// Engines advertises cluster width; batching happens on the shards,
		// so the gateway itself reports MaxBatch 1.
		Engines:  func() uint32 { return uint32(len(co.Nodes())) },
		MaxBatch: 1,
		Conns:    mGatewayConns,
	}}
	g.Control = map[wire.MsgType]func([]byte) (wire.MsgType, []byte, *wire.Error){
		wire.MsgSetupKeys:      g.handleSetupKeys,
		wire.MsgRegisterMatrix: g.handleRegisterMatrix,
	}
	g.Compute = g.handleApply
	return g, nil
}

// wireErr maps a coordinator failure onto the typed wire vocabulary: a
// request that ran out of its deadline is CodeDeadline, degraded scatters
// become CodeDegraded, typed shard rejections pass through, anything else
// is internal.
func wireErr(err error) *wire.Error {
	if errors.Is(err, context.DeadlineExceeded) {
		return wire.Errf(wire.CodeDeadline, "deadline expired during the scatter")
	}
	var de *DegradedError
	if errors.As(err, &de) {
		return de.Wire()
	}
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	return wire.Errf(wire.CodeInternal, "%v", err)
}

func (g *Gateway) handleSetupKeys(payload []byte) (wire.MsgType, []byte, *wire.Error) {
	keys, err := wire.DecodeSetupKeys(g.Params.R, payload)
	if err != nil {
		return 0, nil, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err)
	}
	hash, err := g.co.SetupKeys(keys)
	if err != nil {
		return 0, nil, wireErr(err)
	}
	return wire.MsgSetupKeysOK, wire.SetupKeysOK{KeyHash: hash}.Encode(), nil
}

func (g *Gateway) handleRegisterMatrix(payload []byte) (wire.MsgType, []byte, *wire.Error) {
	A, err := wire.DecodeRegisterMatrix(g.Params.T.Q, payload)
	if err != nil {
		return 0, nil, wire.Errf(wire.CodeBadRequest, "register matrix: %v", err)
	}
	h, err := g.co.RegisterMatrix(A)
	if err != nil {
		return 0, nil, wireErr(err)
	}
	return wire.MsgMatrixHandle, h.Encode(), nil
}

// handleApply is the gateway's Compute handler: it replies from a
// goroutine of its own, which runs one scatter/gather under the request's
// context. Tile lists are the shards' business; the gateway serves whole
// applies.
func (g *Gateway) handleApply(ctx context.Context, a wire.Apply, reply func([]byte, *wire.Error)) {
	if a.Tiles != nil {
		reply(nil, wire.Errf(wire.CodeBadRequest, "the gateway serves whole applies: no tile list"))
		return
	}
	go func() { reply(g.scatter(ctx, a)) }()
}

// scatter serves one whole Apply through the coordinator.
func (g *Gateway) scatter(ctx context.Context, a wire.Apply) ([]byte, *wire.Error) {
	// The gateway is a trace edge: a request from a traced client keeps
	// its context; an untraced request may be sampled fresh here, so a
	// cluster whose clients do not sample still produces end-to-end traces.
	t0 := time.Now()
	tc := trace.FromContext(ctx)
	var gsp trace.Span
	if tc.Sampled() {
		tc, gsp = trace.Start(tc, "gateway", "apply")
	} else {
		tc, gsp = trace.Root("gateway", "apply")
	}
	res, err := g.co.ApplyCtx(trace.NewContext(ctx, tc), a.ID, a.Vector)
	gsp.EndErr(err)
	if tc.Sampled() {
		g.co.cfg.Log.Debug("gateway apply",
			"trace_id", tc.Trace.String(), "dur", time.Since(t0), "err", err != nil)
	}
	if err != nil {
		return nil, wireErr(err)
	}
	return wire.EncodeResult(g.Params.R, res), nil
}
