package server

import (
	"bufio"
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cham/internal/bfv"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/ring"
	"cham/internal/wire"
)

// FrontEnd is the wire front end of a CHAM serving endpoint — a door: the
// listener and connection set, the frame loop with its handshake gate,
// Hello / TraceHello / Ping, the drain barrier, and the deadline and
// trace context every compute request runs under. It exists once and is
// embedded by both doors, Server (chamserve) and cluster.Gateway; what a
// door adds is the handlers it installs in Control and Compute. Set the
// exported fields before Serve and leave them alone afterwards; a
// FrontEnd must not be copied once it serves.
type FrontEnd struct {
	// Params is the parameter set every client must match (required).
	Params bfv.Params
	// MaxFrame bounds one accepted frame (0 = wire.DefaultMaxFrame).
	MaxFrame uint32
	// DefaultDeadline bounds a compute request that carries no deadline
	// of its own, and caps one that does.
	DefaultDeadline time.Duration
	// Log receives the door's lifecycle records.
	Log *slog.Logger

	// Engines and MaxBatch are what HelloOK advertises.
	Engines  func() uint32
	MaxBatch uint32
	// Control answers a control-plane message (keys, registration,
	// registry sync) from its payload. A type with no entry is rejected
	// with CodeBadRequest and the connection stays usable.
	Control map[wire.MsgType]func(payload []byte) (wire.MsgType, []byte, *wire.Error)
	// Compute serves one decoded Apply (a.Tiles == nil) or TileApply that
	// passed the drain barrier. ctx carries the frame's trace context
	// (trace.FromContext) and expires at min(request deadline,
	// DefaultDeadline); it is cancelled when Compute returns. Compute
	// either returns the reply or a typed error, which the front end
	// sends before it retires the request, or returns message type 0:
	// the door has taken the request over and answers it later. The
	// front end imposes neither — a gateway answers inline on the
	// connection's goroutine, a server queues for its batch workers.
	Compute func(ctx context.Context, c *Conn, seq uint16, a wire.TileApply) (wire.MsgType, []byte, *wire.Error)

	// Conns is the door's own open-connections gauge (required): telemetry
	// handles are taken as values, never looked up by name, so two doors in
	// one process charge their own families.
	Conns *obs.Gauge

	// What only chamserve has, set by server.New: the strict-v1 switch
	// behind Config.DisableTrace and the cham_server_* byte, request and
	// rejection counters. Nil handles are simply not charged.
	disableTrace           bool
	bytesRx, bytesTx, errs *obs.Counter
	requests               map[wire.MsgType]*obs.Counter
	rejects                map[string]*obs.Counter // by wire.CodeName

	// enqMu orders admission against drain: admit tests draining and joins
	// reqWG under the read side, Shutdown flips draining under the write
	// side, so no request can join after the drain barrier started waiting.
	enqMu    sync.RWMutex
	draining bool
	reqWG    sync.WaitGroup // admitted compute requests not yet answered

	ln     atomic.Pointer[net.Listener]
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (f *FrontEnd) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(ln)
}

// Serve accepts connections on ln until the listener is closed (by
// Shutdown). It returns nil on a clean shutdown.
func (f *FrontEnd) Serve(ln net.Listener) error {
	f.ln.Store(&ln)
	f.Log.Info("listening", "addr", ln.Addr().String())
	for {
		nc, err := ln.Accept()
		if err != nil {
			f.enqMu.RLock()
			draining := f.draining
			f.enqMu.RUnlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		f.connMu.Lock()
		if f.conns == nil {
			f.conns = map[net.Conn]struct{}{}
		}
		f.conns[nc] = struct{}{}
		f.connMu.Unlock()
		f.Conns.Add(1)
		go f.handleConn(nc)
	}
}

// Addr reports the bound listener address (nil before Serve).
func (f *FrontEnd) Addr() net.Addr {
	if p := f.ln.Load(); p != nil {
		return (*p).Addr()
	}
	return nil
}

// Shutdown drains the door: stop accepting, answer new compute requests
// with CodeDraining, wait until every admitted one has been answered,
// then close the remaining connections. ctx bounds the wait; on expiry
// its error is returned after the connections are force-closed.
func (f *FrontEnd) Shutdown(ctx context.Context) error {
	f.Log.Info("draining")
	f.enqMu.Lock()
	f.draining = true
	f.enqMu.Unlock()
	if p := f.ln.Load(); p != nil {
		(*p).Close()
	}
	err := waitCtx(ctx, &f.reqWG)
	f.connMu.Lock()
	for nc := range f.conns {
		nc.Close()
	}
	f.conns = nil
	f.connMu.Unlock()
	return err
}

// waitCtx waits for wg or the context, whichever first.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit passes one compute request through the drain barrier.
func (f *FrontEnd) admit() bool {
	f.enqMu.RLock()
	defer f.enqMu.RUnlock()
	if f.draining {
		return false
	}
	f.reqWG.Add(1)
	return true
}

// done retires an admitted request; its reply, if any, has been written.
func (f *FrontEnd) done() { f.reqWG.Done() }

// Conn is one client connection of a FrontEnd: the handle a Compute
// handler that answers later keeps to send its reply on. Reads happen on
// the connection's own goroutine; writes are serialized by wmu because a
// door's workers and the read loop respond concurrently.
type Conn struct {
	f   *FrontEnd
	c   net.Conn
	wmu sync.Mutex

	// gone is set when the read loop ends — the peer hung up (a hedged
	// scatter leg that lost its race closes its connection) or the stream
	// broke — so nobody can receive what its queued requests would answer.
	gone atomic.Bool
}

// send writes one frame; write errors are swallowed (the read loop will
// observe the broken connection and tear it down).
func (c *Conn) send(t wire.MsgType, seq uint16, payload []byte) {
	buf := wire.AppendFrame(nil, t, seq, payload)
	c.wmu.Lock()
	_, err := c.c.Write(buf)
	c.wmu.Unlock()
	if m := c.f.bytesTx; err == nil && m != nil {
		m.Add(uint64(len(buf)))
	}
}

// sendErr answers a request with a typed error (unknown codes are not
// counted by reason rather than minting unbounded label values).
func (c *Conn) sendErr(seq uint16, e *wire.Error) {
	if m := c.f.errs; m != nil {
		m.Inc()
	}
	if m := c.f.rejects[wire.CodeName(e.Code)]; m != nil {
		m.Inc()
	}
	c.send(wire.MsgError, seq, e.Encode())
}

// handleConn runs one connection's read loop until the peer hangs up, a
// frame is malformed beyond recovery, or the door closes the socket.
func (f *FrontEnd) handleConn(nc net.Conn) {
	c := &Conn{f: f, c: nc}
	br := bufio.NewReaderSize(nc, 64<<10)
	defer func() {
		c.gone.Store(true)
		f.connMu.Lock()
		delete(f.conns, nc)
		f.connMu.Unlock()
		nc.Close()
		f.Conns.Add(-1)
	}()
	hello := false // parameter handshake completed
	for {
		// The trace-aware read accepts both frame revisions; disableTrace
		// pins the loop to strict v1 and rejects the MsgTraceHello probe,
		// exactly like a pre-tracing build.
		var t wire.MsgType
		var seq uint16
		var th wire.TraceHeader
		var payload []byte
		var err error
		if f.disableTrace {
			t, seq, payload, err = wire.ReadFrame(br, f.MaxFrame)
		} else {
			t, seq, th, payload, err = wire.ReadFrameAny(br, f.MaxFrame)
		}
		if err != nil {
			// Includes io.EOF on clean hang-up and frame-level corruption —
			// after a desync there is no way to resynchronize the stream.
			return
		}
		if m := f.bytesRx; m != nil {
			m.Add(uint64(12 + len(payload))) // header + payload as framed
		}
		if m := f.requests[t]; m != nil {
			m.Inc()
		}
		switch {
		case t == wire.MsgPing:
			c.send(wire.MsgPong, seq, payload)
		case t == wire.MsgHello:
			hello = f.handleHello(c, seq, payload) || hello
		case !hello:
			c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "handshake required before %v", t))
		case t == wire.MsgTraceHello && !f.disableTrace:
			f.handleTraceHello(c, seq, payload)
		case t == wire.MsgApply || t == wire.MsgTileApply:
			tc := trace.Context{Trace: trace.TraceID(th.TraceID), Span: trace.SpanID(th.SpanID), Flags: th.Flags}
			f.handleCompute(c, t, seq, tc, payload)
		default:
			h := f.Control[t]
			if h == nil {
				c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "unexpected message type %d", t))
				continue
			}
			if rt, rp, e := h(payload); e != nil {
				c.sendErr(seq, e)
			} else {
				c.send(rt, seq, rp)
			}
		}
	}
}

// handleHello checks the parameter handshake bit-for-bit and reports
// whether it passed.
func (f *FrontEnd) handleHello(c *Conn, seq uint16, payload []byte) bool {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "hello: %v", err))
		return false
	}
	want := wire.HelloFor(f.Params)
	if h != want {
		c.sendErr(seq, wire.Errf(wire.CodeParamsMismatch,
			"client params N=%d levels=%d/%d t=%d, server has N=%d levels=%d/%d t=%d",
			h.RingN, h.Levels, h.NormalLevels, h.T,
			want.RingN, want.Levels, want.NormalLevels, want.T))
		return false
	}
	c.send(wire.MsgHelloOK, seq, wire.HelloOK{Hello: want, Engines: f.Engines(), MaxBatch: f.MaxBatch}.Encode())
	return true
}

// handleTraceHello acknowledges the trace-capability probe: this build
// accepts version-2 (traced) request frames on any connection.
func (f *FrontEnd) handleTraceHello(c *Conn, seq uint16, payload []byte) {
	h, err := wire.DecodeTraceHello(payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "trace hello: %v", err))
		return
	}
	v := uint8(wire.FrameVersionTraced)
	if h.MaxVersion < v {
		v = h.MaxVersion
	}
	c.send(wire.MsgTraceHelloOK, seq, wire.TraceHelloOK{Version: v}.Encode())
}

// handleCompute takes one Apply or TileApply frame through the drain
// barrier, decodes it, and hands it to the door under its deadline.
func (f *FrontEnd) handleCompute(c *Conn, t wire.MsgType, seq uint16, tc trace.Context, payload []byte) {
	if !f.admit() {
		c.sendErr(seq, wire.Errf(wire.CodeDraining, "shutting down"))
		return
	}
	a, err := decodeCompute(f.Params.R, t, payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "%v: %v", t, err))
		f.done()
		return
	}
	budget := f.DefaultDeadline
	if a.DeadlineMicros > 0 && a.DeadlineMicros < uint64(budget/time.Microsecond) {
		budget = time.Duration(a.DeadlineMicros) * time.Microsecond
	}
	// The connection's read goroutine owns the request until Compute
	// returns; nothing above it holds a context to derive from.
	ctx, cancel := context.WithTimeout(trace.NewContext(context.Background(), tc), budget)
	rt, rp, e := f.Compute(ctx, c, seq, a)
	cancel()
	switch {
	case e != nil:
		c.sendErr(seq, e)
	case rt != 0:
		c.send(rt, seq, rp)
	default:
		return // the door answers later and retires the request itself
	}
	f.done()
}

// decodeCompute parses either compute message into the one request shape:
// an Apply is a TileApply with no tile list (every tile).
func decodeCompute(r *ring.Ring, t wire.MsgType, payload []byte) (wire.TileApply, error) {
	if t == wire.MsgTileApply {
		return wire.DecodeTileApply(r, payload)
	}
	a, err := wire.DecodeApply(r, payload)
	return wire.TileApply{ID: a.ID, DeadlineMicros: a.DeadlineMicros, Vector: a.Vector}, err
}
