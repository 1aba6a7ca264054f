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
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
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
	// MaxConns bounds pooled idle connections (concurrency is unbounded —
	// extra connections are dialed and discarded). Default 4.
	MaxConns int
	// DialTimeout bounds one dial+handshake. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one request round trip and rides along as the
	// Apply deadline hint. Default 30s.
	RequestTimeout time.Duration
	// MaxRetries bounds extra attempts after a retryable failure. Default 3;
	// negative disables retries.
	MaxRetries int
	// Backoff is the first retry delay, growing 2x per attempt with equal
	// jitter, capped at MaxBackoff. Defaults 10ms / 1s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxFrame bounds one accepted response frame. Default wire.DefaultMaxFrame.
	MaxFrame uint32

	// Sleep and Jitter are injection points for tests; defaults are
	// time.Sleep and a seeded math/rand source.
	Sleep  func(time.Duration)
	Jitter func() float64 // uniform in [0,1)
}

func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		return c, fmt.Errorf("client: Config.Addr is required")
	}
	if c.Params.R == nil {
		return c, fmt.Errorf("client: Config.Params is required")
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 4
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Jitter == nil {
		c.Jitter = defaultJitter()
	}
	return c, nil
}

// seedEnv mirrors internal/testutil.SeedEnv without importing the testing
// package into production binaries.
const seedEnv = "CHAM_TEST_SEED"

// jitterClients distinguishes the fallback seeds of clients created in the
// same nanosecond.
var jitterClients atomic.Uint64

// defaultJitter builds the default jitter source: a per-client seeded PRNG
// behind a mutex (rand.Rand is not concurrency-safe and do() may run from
// many goroutines). Under CHAM_TEST_SEED every client draws the identical
// sequence, so retry schedules in tests are reproducible; otherwise each
// client gets its own stream rather than a process-shared source, keeping
// concurrent clients' backoff decorrelated.
func defaultJitter() func() float64 {
	var seed int64
	seeded := false
	if v := os.Getenv(seedEnv); v != "" {
		if s, err := strconv.ParseInt(v, 10, 64); err == nil {
			seed, seeded = s, true
		}
	}
	if !seeded {
		seed = time.Now().UnixNano() ^ int64(jitterClients.Add(1)<<32)
	}
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64()
	}
}

// poolConn is one handshaken connection; at most one request in flight.
type poolConn struct {
	c      net.Conn
	br     *bufio.Reader
	seq    uint16
	ok     wire.HelloOK
	traced bool // server accepted wire.FrameVersionTraced for this conn
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
	if !cl.closed && len(cl.idle) < cl.cfg.MaxConns {
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
	payload, err := pc.roundTrip(cl.cfg.MaxFrame, wire.MsgHello, wire.MsgHelloOK,
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
	if trace.Enabled() {
		if err := cl.negotiateTrace(pc); err != nil {
			nc.Close()
			return nil, err
		}
	}
	nc.SetDeadline(time.Time{})
	return pc, nil
}

// negotiateTrace probes the freshly-dialed connection for traced-frame
// support (wire.MsgTraceHello). A trace-aware server acknowledges and
// the connection may carry version-2 frames; a pre-tracing server
// answers its generic unknown-message rejection with the stream still
// in sync, so the probe silently degrades to plain v1 framing.
func (cl *Client) negotiateTrace(pc *poolConn) error {
	resp, err := pc.roundTrip(cl.cfg.MaxFrame, wire.MsgTraceHello, wire.MsgTraceHelloOK,
		trace.Context{}, wire.TraceHello{MaxVersion: wire.FrameVersionTraced}.Encode())
	if err != nil {
		var we *wire.Error
		if errors.As(err, &we) {
			return nil // old server: keep the connection, stay on v1
		}
		return err
	}
	ack, err := wire.DecodeTraceHelloOK(resp)
	if err != nil {
		return &errTransport{err}
	}
	pc.traced = ack.Version == wire.FrameVersionTraced
	return nil
}

// roundTrip sends one frame and reads the matching response. A sampled
// trace context on a negotiated connection rides a version-2 frame so
// the server can hang its spans under the client's; everything else
// stays version 1. A sequence or type mismatch means the stream is
// desynced and the connection is unusable (the caller must close it).
func (pc *poolConn) roundTrip(maxFrame uint32, t, want wire.MsgType, tc trace.Context, payload []byte) ([]byte, error) {
	pc.seq++
	var werr error
	if tc.Sampled() && pc.traced {
		werr = wire.WriteFrameTraced(pc.c, t, pc.seq,
			wire.TraceHeader{TraceID: tc.Trace, SpanID: tc.Span, Flags: tc.Flags}, payload)
	} else {
		werr = wire.WriteFrame(pc.c, t, pc.seq, payload)
	}
	if werr != nil {
		return nil, &errTransport{werr}
	}
	rt, rseq, rp, err := wire.ReadFrame(pc.br, maxFrame)
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
			pc.c.SetDeadline(time.Now().Add(cl.cfg.RequestTimeout))
			stop := func() bool { return true }
			if ctx.Done() != nil { // an uncancellable request pays nothing for the hook
				stop = context.AfterFunc(ctx, func() { pc.c.SetDeadline(time.Now()) })
			}
			var resp []byte
			resp, err = pc.roundTrip(cl.cfg.MaxFrame, t, want, sctx, payload)
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
		var we *wire.Error
		if errors.As(err, &we) && !we.Retryable() {
			return nil, err // the request itself is bad; retrying cannot help
		}
	}
	return nil, lastErr
}

// deadlineMicros is the deadline hint a compute request carries: the
// request timeout, or what is left of the caller's deadline when that is
// sooner, so a server's queue can expire a request nobody is waiting for.
func (cl *Client) deadlineMicros(ctx context.Context) uint64 {
	d := cl.cfg.RequestTimeout
	if dl, ok := ctx.Deadline(); ok {
		d = min(d, time.Until(dl))
	}
	return uint64(max(d, time.Microsecond) / time.Microsecond) // 0 on the wire would mean "server default"
}

// backoff computes the delay before retry attempt i (0-based) with equal
// jitter: half deterministic growth, half uniform random.
func (cl *Client) backoff(i int) time.Duration {
	d := cl.cfg.Backoff << uint(i)
	if d > cl.cfg.MaxBackoff || d <= 0 {
		d = cl.cfg.MaxBackoff
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
	ok, err := call(context.TODO(), cl, wire.MsgSetupKeys, wire.MsgSetupKeysOK,
		wire.EncodeSetupKeys(cl.cfg.Params.R, keys), wire.DecodeSetupKeysOK)
	return ok.KeyHash, err
}

// RegisterMatrix uploads and prepares a matrix, returning its handle.
// Registration is idempotent by content hash.
func (cl *Client) RegisterMatrix(A [][]uint64) (wire.MatrixHandle, error) {
	payload, err := wire.EncodeRegisterMatrix(A)
	if err != nil {
		return wire.MatrixHandle{}, err
	}
	return call(context.TODO(), cl, wire.MsgRegisterMatrix, wire.MsgMatrixHandle, payload, wire.DecodeMatrixHandle)
}

// Apply multiplies a registered matrix with an encrypted vector and
// returns the packed result. The request carries RequestTimeout as its
// server-side deadline hint.
func (cl *Client) Apply(id [32]byte, vec []*rlwe.Ciphertext) (wire.Result, error) {
	return cl.ApplyCtx(context.TODO(), id, vec)
}

// ApplyCtx is Apply under a context: a sampled trace context riding in
// ctx (trace.NewContext) travels in the request's wire frames (when the
// server negotiated tracing), so server-side spans nest under the
// caller's; ctx's deadline, when sooner than RequestTimeout, becomes the
// request's deadline hint; and a ctx that ends abandons the request.
func (cl *Client) ApplyCtx(ctx context.Context, id [32]byte, vec []*rlwe.Ciphertext) (wire.Result, error) {
	r := cl.cfg.Params.R
	return call(ctx, cl, wire.MsgApply, wire.MsgResult,
		wire.EncodeApply(r, wire.Apply{ID: id, DeadlineMicros: cl.deadlineMicros(ctx), Vector: vec}),
		func(b []byte) (wire.Result, error) { return wire.DecodeResult(r, b) })
}
