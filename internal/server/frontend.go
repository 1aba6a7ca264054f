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
	"cham/internal/wire"
)

// FrontEnd is the wire front end of a CHAM serving endpoint — a door: the
// listener and connection set, the frame loop with its handshake gate,
// Hello and Ping, the drain barrier, and the deadline and
// trace context every compute request runs under. It exists once and is
// embedded by both doors, Server (chamserve) and cluster.Gateway; what a
// door adds is the handlers it installs in Control and Compute. Set the
// exported fields before Serve and leave them alone afterwards; a
// FrontEnd must not be copied once it serves.
type FrontEnd struct {
	// Params is the parameter set every client must match (required).
	Params bfv.Params
	// DefaultDeadline bounds a compute request that carries no deadline
	// of its own, and caps one that does.
	DefaultDeadline time.Duration
	// Log receives the door's lifecycle records.
	Log *slog.Logger

	// Engines and MaxBatch are what HelloOK advertises.
	Engines  func() uint32
	MaxBatch uint32
	// Control answers a control-plane message (keys, registration) from
	// its payload. A type with no entry is rejected with CodeBadRequest
	// and the connection stays usable.
	Control map[wire.MsgType]func(payload []byte) (wire.MsgType, []byte, *wire.Error)
	// Compute serves one decoded Apply — every tile (a.Tiles == nil) or a
	// tile subset — that passed the drain barrier, and answers it exactly
	// once through reply: the Result payload, or a typed error. It may
	// reply before it returns or later, from any goroutine. ctx carries
	// the frame's trace context (trace.FromContext) and expires at
	// min(request deadline, DefaultDeadline); a caller that hangs up
	// cancels it (ctx.Err() == context.Canceled), and reply cancels it too.
	// reply writes nothing to a caller that has hung up.
	Compute func(ctx context.Context, a wire.Apply, reply func(result []byte, e *wire.Error))

	// Conns is the door's own open-connections gauge (required): telemetry
	// handles are taken as values, never looked up by name, so two doors in
	// one process charge their own families.
	Conns *obs.Gauge

	// What only chamserve has, set by server.New: the cham_server_* byte,
	// request, rejection and abandonment counters. Nil handles are simply
	// not charged.
	bytesRx, bytesTx, abandoned *obs.Counter
	requests                    map[wire.MsgType]*obs.Counter
	rejects                     map[string]*obs.Counter // by wire.CodeName

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

// conn is one client connection of a FrontEnd. Reads happen on the
// connection's own goroutine; writes are serialized by wmu because a
// door's replies and the read loop respond concurrently.
type conn struct {
	f   *FrontEnd
	c   net.Conn
	wmu sync.Mutex

	// ctx is cancelled when the read loop ends — the peer hung up (a hedged
	// scatter leg that lost its race closes its connection) or the stream
	// broke — and parents every compute request the connection carries, so
	// a door stops working for a caller that cannot receive the answer.
	ctx context.Context
	// computing is set while the connection's compute request is
	// unanswered: one connection carries one compute request at a time.
	computing atomic.Bool
}

// send writes one frame; write errors are swallowed (the read loop will
// observe the broken connection and tear it down). The frame is charged
// to the byte counter before it is written, so a peer that has read a
// reply finds it counted.
func (c *conn) send(t wire.MsgType, seq uint16, payload []byte) {
	buf := wire.AppendFrame(nil, t, seq, wire.TraceHeader{}, payload)
	if m := c.f.bytesTx; m != nil {
		m.Add(uint64(len(buf)))
	}
	c.wmu.Lock()
	c.c.Write(buf)
	c.wmu.Unlock()
}

// sendErr answers a request with a typed error (unknown codes are not
// counted by reason rather than minting unbounded label values).
func (c *conn) sendErr(seq uint16, e *wire.Error) {
	if m := c.f.rejects[wire.CodeName(e.Code)]; m != nil {
		m.Inc()
	}
	c.send(wire.MsgError, seq, e.Encode())
}

// handleConn runs one connection's read loop until the peer hangs up, a
// frame is malformed beyond recovery, or the door closes the socket.
func (f *FrontEnd) handleConn(nc net.Conn) {
	ctx, hangUp := context.WithCancel(context.Background())
	c := &conn{f: f, c: nc, ctx: ctx}
	br := bufio.NewReaderSize(nc, 64<<10)
	defer func() {
		hangUp()
		f.connMu.Lock()
		delete(f.conns, nc)
		f.connMu.Unlock()
		nc.Close()
		f.Conns.Add(-1)
	}()
	hello := false // parameter handshake completed
	for {
		t, seq, th, payload, err := wire.ReadFrame(br)
		if err != nil {
			// Includes io.EOF on clean hang-up and frame-level corruption —
			// after a desync there is no way to resynchronize the stream. A
			// peer of another frame revision is told why first.
			var ve *wire.VersionError
			if errors.As(err, &ve) {
				c.sendErr(ve.Seq, wire.Errf(wire.CodeVersionMismatch,
					"frame of protocol revision %d, this door speaks %d", ve.Version, wire.FrameVersion))
			}
			return
		}
		if m := f.bytesRx; m != nil {
			m.Add(uint64(wire.FrameHeaderLen + len(payload)))
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
		case t == wire.MsgApply:
			tc := trace.Context{Trace: trace.TraceID(th.TraceID), Span: trace.SpanID(th.SpanID), Flags: th.Flags}
			f.handleCompute(c, seq, tc, payload)
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
func (f *FrontEnd) handleHello(c *conn, seq uint16, payload []byte) bool {
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

// handleCompute takes one Apply frame through the connection's
// one-at-a-time rule and the drain barrier, decodes it, and hands it to
// the door under its deadline with the reply that answers and retires it.
func (f *FrontEnd) handleCompute(c *conn, seq uint16, tc trace.Context, payload []byte) {
	if !c.computing.CompareAndSwap(false, true) {
		c.sendErr(seq, wire.Errf(wire.CodeOverloaded, "the connection's previous compute request is unanswered"))
		return
	}
	if !f.admit() {
		c.computing.Store(false)
		c.sendErr(seq, wire.Errf(wire.CodeDraining, "shutting down"))
		return
	}
	a, err := wire.DecodeApply(f.Params.R, payload)
	budget := f.DefaultDeadline
	if a.DeadlineMicros > 0 && a.DeadlineMicros < uint64(budget/time.Microsecond) {
		budget = time.Duration(a.DeadlineMicros) * time.Microsecond
	}
	ctx, cancel := context.WithTimeout(trace.NewContext(c.ctx, tc), budget)
	reply := func(result []byte, e *wire.Error) {
		cancel()
		// Free before the write: a caller that has read the reply may send
		// its next compute request at once.
		c.computing.Store(false)
		switch {
		case c.ctx.Err() != nil:
			if m := f.abandoned; m != nil {
				m.Inc()
			}
		case e != nil:
			c.sendErr(seq, e)
		default:
			c.send(wire.MsgResult, seq, result)
		}
		f.reqWG.Done()
	}
	if err != nil {
		reply(nil, wire.Errf(wire.CodeBadRequest, "apply: %v", err))
		return
	}
	f.Compute(ctx, a, reply)
}
