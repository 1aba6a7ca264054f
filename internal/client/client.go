// Package client is the host-side library for chamserve: a small
// connection pool over the wire protocol with per-request timeouts and
// jittered exponential backoff for transient failures (dial errors,
// broken connections, typed overload/drain rejections). Requests are
// pure compute — applying a registered matrix to a ciphertext has no
// server-side effects — so retrying after a transport error is safe.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"time"

	"cham/internal/bfv"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/rlwe"
	"cham/internal/wire"
)

// Config shapes a Client. Zero values select sensible defaults.
type Config struct {
	// Addr is the server's TCP address (required).
	Addr string
	// Params must match the server's parameter set (required).
	Params bfv.Params
	// DialTimeout bounds one dial+handshake. Default 5s.
	DialTimeout time.Duration
	// MaxRetries bounds extra attempts after a retryable failure. Default 3;
	// negative disables retries.
	MaxRetries int

	// Sleep and Jitter are injection points for tests; defaults are
	// time.Sleep and math/rand/v2's Float64.
	Sleep  func(time.Duration)
	Jitter func() float64 // uniform in [0,1)
}

// DefaultRequestTimeout bounds one request round trip and rides along as
// a compute request's deadline hint; a caller wanting a sooner bound puts
// a deadline on the context (ApplyCtx, TileApplyCtx).
const DefaultRequestTimeout = 30 * time.Second

const (
	// maxIdle bounds pooled idle connections (concurrency is unbounded —
	// extra connections are dialed and discarded).
	maxIdle = 4
	// backoffBase is the first retry delay, growing 2x per attempt with
	// equal jitter, capped at backoffMax.
	backoffBase = 10 * time.Millisecond
	backoffMax  = time.Second
)

func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		return c, fmt.Errorf("client: Config.Addr is required")
	}
	if c.Params.R == nil {
		return c, fmt.Errorf("client: Config.Params is required")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Jitter == nil {
		c.Jitter = rand.Float64
	}
	return c, nil
}

// poolConn is one handshaken connection; at most one request in flight.
type poolConn struct {
	c   net.Conn
	br  *bufio.Reader
	seq uint16
	ok  wire.HelloOK
}

// Client talks to one chamserve instance. Safe for concurrent use; each
// in-flight request holds its own connection.
type Client struct {
	cfg Config

	mu     sync.Mutex
	idle   []*poolConn
	closed bool
}

var (
	mDials = obs.GetCounter("cham_client_dials_total",
		"Connections dialed (pool misses).")
	mRetries = obs.GetCounter("cham_client_retries_total",
		"Request attempts beyond the first.")
	mRequests = obs.GetCounter("cham_client_requests_total",
		"Requests issued, including retried attempts.")
)

// Dial creates a client. Connections are established lazily.
func Dial(cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Client{cfg: cfg}, nil
}

// Close releases all pooled connections. In-flight requests fail.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	for _, pc := range cl.idle {
		pc.c.Close()
	}
	cl.idle = nil
	return nil
}

// errTransport wraps connection-level failures so the retry loop can tell
// them apart from typed server rejections.
type errTransport struct{ err error }

func (e *errTransport) Error() string { return "cham client: transport: " + e.err.Error() }
func (e *errTransport) Unwrap() error { return e.err }

// get returns a pooled connection or dials a fresh one (including the
// Hello handshake).
func (cl *Client) get() (*poolConn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, fmt.Errorf("client: closed")
	}
	if n := len(cl.idle); n > 0 {
		pc := cl.idle[n-1]
		cl.idle = cl.idle[:n-1]
		cl.mu.Unlock()
		return pc, nil
	}
	cl.mu.Unlock()
	return cl.dial()
}

// put parks a healthy connection for reuse.
func (cl *Client) put(pc *poolConn) {
	cl.mu.Lock()
	if !cl.closed && len(cl.idle) < maxIdle {
		cl.idle = append(cl.idle, pc)
		cl.mu.Unlock()
		return
	}
	cl.mu.Unlock()
	pc.c.Close()
}

// dial opens and handshakes a fresh connection.
func (cl *Client) dial() (*poolConn, error) {
	mDials.Inc()
	nc, err := net.DialTimeout("tcp", cl.cfg.Addr, cl.cfg.DialTimeout)
	if err != nil {
		return nil, &errTransport{err}
	}
	pc := &poolConn{c: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	nc.SetDeadline(time.Now().Add(cl.cfg.DialTimeout))
	payload, err := pc.roundTrip(wire.MsgHello, wire.MsgHelloOK,
		trace.Context{}, wire.HelloFor(cl.cfg.Params).Encode())
	if err != nil {
		nc.Close()
		return nil, err
	}
	ok, err := wire.DecodeHelloOK(payload)
	if err != nil {
		nc.Close()
		return nil, &errTransport{err}
	}
	pc.ok = ok
	nc.SetDeadline(time.Time{})
	return pc, nil
}

// roundTrip sends one frame, whose trace block carries tc so the server
// can hang its spans under the caller's, and reads the matching response.
// A sequence or type mismatch means the stream is desynced and the
// connection is unusable (the caller must close it).
func (pc *poolConn) roundTrip(t, want wire.MsgType, tc trace.Context, payload []byte) ([]byte, error) {
	pc.seq++
	th := wire.TraceHeader{TraceID: tc.Trace, SpanID: tc.Span, Flags: tc.Flags}
	if err := wire.WriteFrame(pc.c, t, pc.seq, th, payload); err != nil {
		return nil, &errTransport{err}
	}
	rt, rseq, _, rp, err := wire.ReadFrame(pc.br)
	if _, ok := err.(*wire.VersionError); ok {
		return nil, err // a peer of another revision: permanent
	}
	if err != nil {
		return nil, &errTransport{err}
	}
	if rseq != pc.seq {
		return nil, &errTransport{fmt.Errorf("response seq %d, want %d (stream desync)", rseq, pc.seq)}
	}
	if rt == wire.MsgError {
		we, derr := wire.DecodeError(rp)
		if derr != nil {
			return nil, &errTransport{derr}
		}
		return nil, we
	}
	if rt != want {
		return nil, &errTransport{fmt.Errorf("response type %d, want %d", rt, want)}
	}
	return rp, nil
}

// call is the one request/response helper every operation with a reply
// body goes through: do, then decode; a reply that does not decode is a transport error (a
// desynced or hostile peer).
func call[T any](ctx context.Context, cl *Client, t, want wire.MsgType, payload []byte, decode func([]byte) (T, error)) (T, error) {
	var zero T
	resp, err := cl.do(ctx, t, want, payload)
	if err != nil {
		return zero, err
	}
	v, err := decode(resp)
	if err != nil {
		return zero, &errTransport{err}
	}
	return v, nil
}

// do runs one request with pooling, timeouts, and jittered backoff. The
// connection returns to the pool only after a fully clean round trip; a
// typed server rejection keeps the stream in sync, anything else closes
// the connection.
//
// ctx is the one way a caller's context travels. A trace context riding
// in it (see trace.NewContext) gives each attempt its own client span
// (the context the server receives), so retries show up as separate
// sibling RPCs in the trace. When ctx ends — cancelled, or past its
// deadline — the request is abandoned: the in-flight connection's
// deadline is pulled to now and the connection is closed rather than
// pooled (an unread reply would desync the stream), the server sees the
// hang-up and drops the request if it is still queued, and ctx.Err()
// comes back with no retry or backoff.
func (cl *Client) do(ctx context.Context, t, want wire.MsgType, payload []byte) ([]byte, error) {
	if uint64(len(payload)) > uint64(wire.DefaultMaxFrame) {
		return nil, &wire.FrameSizeError{Size: uint64(len(payload))} // no door would read it
	}
	tc := trace.FromContext(ctx)
	var lastErr error
	for attempt := 0; attempt <= cl.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			mRetries.Inc()
			cl.cfg.Sleep(cl.backoff(attempt - 1))
		}
		mRequests.Inc()
		pc, err := cl.get()
		if err == nil {
			sctx, sp := trace.Start(tc, "client", "send:"+t.String())
			if attempt > 0 && sp.Active() {
				sp.Annotate(fmt.Sprintf("retry %d", attempt))
			}
			pc.c.SetDeadline(time.Now().Add(DefaultRequestTimeout))
			stop := func() bool { return true }
			if ctx.Done() != nil { // an uncancellable request pays nothing for the hook
				stop = context.AfterFunc(ctx, func() { pc.c.SetDeadline(time.Now()) })
			}
			var resp []byte
			resp, err = pc.roundTrip(t, want, sctx, payload)
			if !stop() {
				// Cancelled mid-flight: the deadline hook owns the connection
				// now (it may still be running), so it can never be pooled.
				pc.c.Close()
				sp.Annotate("cancelled")
				sp.End()
				return nil, ctx.Err()
			}
			pc.c.SetDeadline(time.Time{})
			sp.EndErr(err)
			var we *wire.Error
			if err == nil || errors.As(err, &we) {
				cl.put(pc) // stream still in sync
			} else {
				pc.c.Close()
			}
			if err == nil {
				return resp, nil
			}
		}
		lastErr = err
		if permanent(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// permanent reports a failure no retry can mend: a typed rejection of the
// request itself, or a peer of another protocol revision.
func permanent(err error) bool {
	var we *wire.Error
	var ve *wire.VersionError
	return errors.As(err, &we) && !we.Retryable() || errors.As(err, &ve)
}

// deadlineMicros is the deadline hint a compute request carries:
// DefaultRequestTimeout, or what is left of the caller's deadline when
// that is sooner, so a server's queue can expire a request nobody is
// waiting for.
func (cl *Client) deadlineMicros(ctx context.Context) uint64 {
	d := DefaultRequestTimeout
	if dl, ok := ctx.Deadline(); ok {
		d = min(d, time.Until(dl))
	}
	return uint64(max(d, time.Microsecond) / time.Microsecond) // 0 on the wire would mean "server default"
}

// backoff computes the delay before retry attempt i (0-based) with equal
// jitter: half deterministic growth, half uniform random.
func (cl *Client) backoff(i int) time.Duration {
	d := backoffBase << uint(i)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	half := d / 2
	return half + time.Duration(cl.cfg.Jitter()*float64(half))
}

// Hello returns the server's handshake echo (engines, batch limit),
// dialing a connection if none is pooled.
func (cl *Client) Hello() (wire.HelloOK, error) {
	pc, err := cl.get()
	if err != nil {
		return wire.HelloOK{}, err
	}
	ok := pc.ok
	cl.put(pc)
	return ok, nil
}

// Ping round-trips an empty frame.
func (cl *Client) Ping() error {
	_, err := cl.do(context.TODO(), wire.MsgPing, wire.MsgPong, nil)
	return err
}

// SetupKeys installs the packing-key set and returns its canonical hash.
// Idempotent: re-sending the same set succeeds with the same hash.
func (cl *Client) SetupKeys(keys *lwe.PackingKeys) ([32]byte, error) {
	return cl.SetupKeysEncoded(wire.EncodeSetupKeys(cl.cfg.Params.R, keys))
}

// SetupKeysEncoded is SetupKeys for a key set already in its
// wire.EncodeSetupKeys form, so a broadcast encodes it once for every node.
func (cl *Client) SetupKeysEncoded(payload []byte) ([32]byte, error) {
	ok, err := call(context.TODO(), cl, wire.MsgSetupKeys, wire.MsgSetupKeysOK, payload, wire.DecodeSetupKeysOK)
	return ok.KeyHash, err
}

// RegisterMatrix uploads and prepares a matrix, returning its handle.
// Registration is idempotent by content hash.
func (cl *Client) RegisterMatrix(A [][]uint64) (wire.MatrixHandle, error) {
	payload, err := wire.EncodeRegisterMatrix(A)
	if err != nil {
		return wire.MatrixHandle{}, err
	}
	return cl.RegisterMatrixEncoded(payload)
}

// RegisterMatrixEncoded is RegisterMatrix for a matrix already in its
// wire.EncodeRegisterMatrix form, so a broadcast encodes it once for every
// node.
func (cl *Client) RegisterMatrixEncoded(payload []byte) (wire.MatrixHandle, error) {
	return call(context.TODO(), cl, wire.MsgRegisterMatrix, wire.MsgMatrixHandle, payload, wire.DecodeMatrixHandle)
}

// Apply multiplies a registered matrix with an encrypted vector and
// returns the packed result. The request carries DefaultRequestTimeout as
// its server-side deadline hint.
func (cl *Client) Apply(id [32]byte, vec []*rlwe.Ciphertext) (wire.Result, error) {
	return cl.ApplyCtx(context.TODO(), id, vec)
}

// ApplyCtx is Apply under a context: a sampled trace context riding in
// ctx (trace.NewContext) travels in the request's wire frames, so
// server-side spans nest under the caller's; ctx's deadline, when sooner
// than DefaultRequestTimeout, becomes the request's deadline hint; and a
// ctx that ends abandons the request.
func (cl *Client) ApplyCtx(ctx context.Context, id [32]byte, vec []*rlwe.Ciphertext) (wire.Result, error) {
	return cl.compute(ctx, wire.Apply{ID: id, Vector: vec})
}

// compute is the one compute round trip behind ApplyCtx and
// TileApplyCtx: a carries ctx's deadline hint, and the Result must answer
// it — rows, labelled with exactly the requested tiles — or it is a
// transport error, like any reply that does not decode.
func (cl *Client) compute(ctx context.Context, a wire.Apply) (wire.Result, error) {
	r := cl.cfg.Params.R
	a.DeadlineMicros = cl.deadlineMicros(ctx)
	return call(ctx, cl, wire.MsgApply, wire.MsgResult, wire.EncodeApply(r, a),
		func(b []byte) (wire.Result, error) {
			res, err := wire.DecodeResult(r, b)
			if err == nil && (!slices.Equal(res.Tiles, a.Tiles) || res.M == 0) {
				err = fmt.Errorf("result of %d rows labelled %v answers an apply for tiles %v", res.M, res.Tiles, a.Tiles)
			}
			return res, err
		})
}
