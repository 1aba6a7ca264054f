package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/wire"
)

// GatewayConfig shapes a Gateway.
type GatewayConfig struct {
	// Coordinator owns the shard map (required).
	Coordinator *Coordinator
	// MaxFrame bounds one accepted wire frame. Default wire.DefaultMaxFrame.
	MaxFrame uint32
}

var mGatewayConns = obs.GetGauge("cham_cluster_gateway_connections",
	"Open client connections on the cluster gateway.")

// Gateway is the cluster's wire-compatible front door: it speaks the
// exact chamserve protocol (Hello/SetupKeys/RegisterMatrix/Apply/Ping),
// so an unmodified client sees one big server while the coordinator
// scatters the work across shards behind it. Control-plane messages are
// broadcast to every node; Apply is scatter/gather.
type Gateway struct {
	cfg GatewayConfig
	co  *Coordinator

	// enqMu orders admission against drain, as in server.admit: handleApply
	// tests draining and joins reqWG under the read side, Shutdown flips
	// draining under the write side, so no apply can join after the drain
	// barrier started waiting.
	enqMu    sync.RWMutex
	draining atomic.Bool
	reqWG    sync.WaitGroup

	ln     atomic.Pointer[net.Listener]
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewGateway builds a gateway over a coordinator.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: GatewayConfig.Coordinator is required")
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	return &Gateway{cfg: cfg, co: cfg.Coordinator, conns: map[net.Conn]struct{}{}}, nil
}

// ListenAndServe listens on addr and serves until Shutdown.
func (g *Gateway) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return g.Serve(ln)
}

// Serve accepts connections until the listener closes (via Shutdown).
func (g *Gateway) Serve(ln net.Listener) error {
	g.ln.Store(&ln)
	for {
		c, err := ln.Accept()
		if err != nil {
			if g.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		g.connMu.Lock()
		g.conns[c] = struct{}{}
		g.connMu.Unlock()
		mGatewayConns.Add(1)
		go g.handleConn(c)
	}
}

// Addr reports the bound listener address (nil before Serve).
func (g *Gateway) Addr() net.Addr {
	if p := g.ln.Load(); p != nil {
		return (*p).Addr()
	}
	return nil
}

// Shutdown drains: stop accepting, answer new applies with CodeDraining,
// finish in-flight scatters, then close remaining connections. The
// shard nodes are not shut down — they belong to their own processes.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.enqMu.Lock()
	g.draining.Store(true)
	g.enqMu.Unlock()
	if p := g.ln.Load(); p != nil {
		(*p).Close()
	}
	done := make(chan struct{})
	go func() {
		g.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	g.connMu.Lock()
	for c := range g.conns {
		c.Close()
	}
	g.conns = map[net.Conn]struct{}{}
	g.connMu.Unlock()
	return err
}

// gwConn is one client connection. Requests are handled inline on the
// read goroutine — the coordinator's scatter already fans out per
// request, and cross-client concurrency comes from one goroutine per
// connection.
type gwConn struct {
	g     *Gateway
	c     net.Conn
	br    *bufio.Reader
	wmu   sync.Mutex
	hello bool
}

func (c *gwConn) send(t wire.MsgType, seq uint16, payload []byte) {
	buf := wire.AppendFrame(nil, t, seq, payload)
	c.wmu.Lock()
	c.c.Write(buf)
	c.wmu.Unlock()
}

func (c *gwConn) sendErr(seq uint16, e *wire.Error) {
	c.send(wire.MsgError, seq, e.Encode())
}

// wireErr maps a coordinator failure onto the typed wire vocabulary:
// degraded scatters become CodeDegraded, typed shard rejections pass
// through, anything else is internal.
func wireErr(err error) *wire.Error {
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

func (g *Gateway) handleConn(nc net.Conn) {
	c := &gwConn{g: g, c: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	defer func() {
		g.connMu.Lock()
		delete(g.conns, nc)
		g.connMu.Unlock()
		nc.Close()
		mGatewayConns.Add(-1)
	}()
	for {
		t, seq, th, payload, err := wire.ReadFrameAny(c.br, g.cfg.MaxFrame)
		if err != nil {
			return
		}
		tc := trace.Context{Trace: trace.TraceID(th.TraceID), Span: trace.SpanID(th.SpanID), Flags: th.Flags}
		if !c.hello && t != wire.MsgHello && t != wire.MsgPing {
			c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "handshake required before %v", t))
			continue
		}
		switch t {
		case wire.MsgHello:
			g.handleHello(c, seq, payload)
		case wire.MsgSetupKeys:
			g.handleSetupKeys(c, seq, payload)
		case wire.MsgRegisterMatrix:
			g.handleRegisterMatrix(c, seq, payload)
		case wire.MsgApply:
			g.handleApply(c, seq, tc, payload)
		case wire.MsgTraceHello:
			h, derr := wire.DecodeTraceHello(payload)
			if derr != nil {
				c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "trace hello: %v", derr))
				continue
			}
			v := uint8(wire.FrameVersionTraced)
			if h.MaxVersion < v {
				v = h.MaxVersion
			}
			c.send(wire.MsgTraceHelloOK, seq, wire.TraceHelloOK{Version: v}.Encode())
		case wire.MsgPing:
			c.send(wire.MsgPong, seq, payload)
		default:
			c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "unexpected message type %d at the gateway", t))
		}
	}
}

func (g *Gateway) handleHello(c *gwConn, seq uint16, payload []byte) {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "hello: %v", err))
		return
	}
	want := wire.HelloFor(g.co.cfg.Params)
	if h != want {
		c.sendErr(seq, wire.Errf(wire.CodeParamsMismatch,
			"client params N=%d levels=%d/%d t=%d, cluster has N=%d levels=%d/%d t=%d",
			h.RingN, h.Levels, h.NormalLevels, h.T,
			want.RingN, want.Levels, want.NormalLevels, want.T))
		return
	}
	c.hello = true
	// Engines advertises cluster width; batching happens on the shards,
	// so the gateway itself reports MaxBatch 1.
	ok := wire.HelloOK{Hello: want, Engines: uint32(len(g.co.Nodes())), MaxBatch: 1}
	c.send(wire.MsgHelloOK, seq, ok.Encode())
}

func (g *Gateway) handleSetupKeys(c *gwConn, seq uint16, payload []byte) {
	keys, err := wire.DecodeSetupKeys(g.co.cfg.Params.R, payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err))
		return
	}
	hash, err := g.co.SetupKeys(keys)
	if err != nil {
		c.sendErr(seq, wireErr(err))
		return
	}
	c.send(wire.MsgSetupKeysOK, seq, wire.SetupKeysOK{KeyHash: hash}.Encode())
}

func (g *Gateway) handleRegisterMatrix(c *gwConn, seq uint16, payload []byte) {
	A, err := wire.DecodeRegisterMatrix(g.co.cfg.Params.T.Q, payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "register matrix: %v", err))
		return
	}
	h, err := g.co.RegisterMatrix(A)
	if err != nil {
		c.sendErr(seq, wireErr(err))
		return
	}
	c.send(wire.MsgMatrixHandle, seq, h.Encode())
}

func (g *Gateway) handleApply(c *gwConn, seq uint16, tc trace.Context, payload []byte) {
	g.enqMu.RLock()
	if g.draining.Load() {
		g.enqMu.RUnlock()
		c.sendErr(seq, wire.Errf(wire.CodeDraining, "gateway is shutting down"))
		return
	}
	g.reqWG.Add(1)
	g.enqMu.RUnlock()
	defer g.reqWG.Done()
	a, err := wire.DecodeApply(g.co.cfg.Params.R, payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "apply: %v", err))
		return
	}
	// The gateway is a trace edge: a request from a traced client keeps
	// its context; an untraced request may be sampled fresh here, so a
	// cluster fronting old clients still produces end-to-end traces.
	t0 := time.Now()
	var gsp trace.Span
	if tc.Sampled() {
		tc, gsp = trace.Start(tc, "gateway", "apply")
	} else {
		tc, gsp = trace.Root("gateway", "apply")
	}
	res, err := g.co.ApplyTraced(tc, a.ID, a.Vector)
	gsp.EndErr(err)
	if tc.Sampled() {
		g.co.cfg.Log.Debug("gateway apply",
			"trace_id", tc.Trace.String(), "dur", time.Since(t0), "err", err != nil)
	}
	if err != nil {
		c.sendErr(seq, wireErr(err))
		return
	}
	c.send(wire.MsgResult, seq, wire.EncodeResult(g.co.cfg.Params.R, res))
}
