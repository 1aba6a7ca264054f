// Package server is chamserve's core: a TCP job service that turns the
// in-process HMVP engine into a networked accelerator tier. Clients
// register cleartext matrices (named by content hash, prepared once into
// evaluation-ready form) and stream encrypted vectors at them; the server
// coalesces concurrent single-vector requests into batches, mirrors each
// batch as one descriptor job on the accelerator runtime's engine pool,
// and applies admission control so overload degrades into fast typed
// rejections instead of collapse.
//
// The paper's heterogeneous host+card system (§III-C) keeps engines
// saturated by interleaving transfer and compute; this package is the
// same idea one tier up: the admission queue decouples arrival from
// service, the batcher amortizes per-job dispatch across coalesced
// requests, and per-request deadlines abort work that nobody is waiting
// for anymore. Everything is observable through the cham_server_*
// families in internal/obs.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/rlwe"
	rt "cham/internal/runtime"
	"cham/internal/wire"
)

// Config shapes a Server. The zero value of every field selects a
// production-reasonable default.
type Config struct {
	// Params is the parameter set every client must match (required).
	Params bfv.Params
	// MaxBatch bounds how many coalesced requests one batch may carry;
	// 1 disables coalescing. Default 16.
	MaxBatch int
	// Linger is how long the batcher waits for the batch to fill before
	// dispatching it short. Default 2ms.
	Linger time.Duration
	// QueueDepth bounds the admission queue; requests beyond it are
	// rejected with CodeOverloaded. Default 256.
	QueueDepth int
	// DefaultDeadline bounds queue wait + service for requests that do not
	// carry their own deadline. Default 5s.
	DefaultDeadline time.Duration
	// Workers is the number of batch executors. Default GOMAXPROCS.
	Workers int
	// EvalWorkers is the per-apply parallelism of the shared evaluator
	// (Evaluator.Workers). Default 0 = GOMAXPROCS.
	EvalWorkers int
	// MaxFrame bounds one accepted wire frame. Default wire.DefaultMaxFrame.
	MaxFrame uint32
	// Card, when non-nil, mirrors every dispatched batch as one HMVP
	// descriptor job on the simulated accelerator's engine pool, so batch
	// coalescing amortizes real per-job dispatch cost.
	Card *rt.Runtime
	// LazyTiles is the shard mode of the cluster tier: RegisterMatrix
	// retains the cleartext matrix and prepares no tiles upfront; each row
	// tile is prepared on first use (a TileApply for it, a warm-up request,
	// or a full Apply, which prepares everything). A shard node that
	// normally serves its own tile range can therefore take over any tile
	// after a peer dies, paying the preparation cost only on failover.
	LazyTiles bool
	// DisableTrace pins the connection read loop to strict protocol
	// revision 1 and rejects the MsgTraceHello capability probe, exactly
	// like a pre-tracing build — the version-skew interop tests use it to
	// stand in for an old server.
	DisableTrace bool
	// Log receives the server's structured logs (per-request records at
	// Debug, lifecycle at Info; sampled requests carry their trace_id).
	// Default: discard — binaries pass a handler configured by -log-level.
	Log *slog.Logger
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Params.R == nil {
		return c, fmt.Errorf("server: Config.Params is required")
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Linger <= 0 {
		c.Linger = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c, nil
}

// regMatrix is one registered matrix: prepared once, applied many times,
// with a pool of result buffers so steady-state applies reuse memory.
// payload is the canonical RegisterMatrix encoding (whose SHA-256 is the
// matrix ID) and feeds registry replication; A is retained only in
// LazyTiles mode, where prepMu serializes on-demand tile preparation.
type regMatrix struct {
	pm       *core.PreparedMatrix
	handle   wire.MatrixHandle
	packLog2 uint8
	payload  []byte
	pool     sync.Pool // *core.Result

	prepMu sync.Mutex
	A      [][]uint64 // nil unless lazily prepared
}

func (m *regMatrix) getResult() *core.Result {
	if res, ok := m.pool.Get().(*core.Result); ok {
		return res
	}
	return m.pm.NewResult()
}

func (m *regMatrix) putResult(res *core.Result) { m.pool.Put(res) }

// request is one admitted Apply or TileApply, from enqueue to response.
// tiles nil means a full apply; otherwise only the listed row tiles are
// computed and answered as a MsgTileResult.
type request struct {
	mat      *regMatrix
	vec      []*rlwe.Ciphertext
	tiles    []uint32
	conn     *serverConn
	seq      uint16
	enqueued time.Time
	deadline time.Time
	tc       trace.Context // propagated from the request frame's trace header
	qspan    trace.Span    // admission → batch pickup (inert when unsampled)
}

// Server is a running chamserve instance.
type Server struct {
	cfg Config

	mu          sync.RWMutex // guards ev, keyHash, keysPayload, matrices
	ev          *core.Evaluator
	haveKeys    bool
	keyHash     [32]byte
	keysPayload []byte // canonical SetupKeys encoding, for registry export
	matrices    map[[32]byte]*regMatrix

	// enqMu serializes admission against drain: enqueuers hold the read
	// side, Shutdown flips draining under the write side, so no request
	// can slip into the queue after the drain barrier.
	enqMu    sync.RWMutex
	draining bool
	queue    chan *request
	batches  chan []*request

	reqWG  sync.WaitGroup // admitted requests not yet responded to
	workWG sync.WaitGroup // dispatcher + workers

	ln        atomic.Pointer[net.Listener]
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	closeOnce sync.Once
}

// New builds a server and starts its dispatcher and worker pool; call
// Serve (or ListenAndServe) to accept connections.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		matrices: map[[32]byte]*regMatrix{},
		queue:    make(chan *request, cfg.QueueDepth),
		batches:  make(chan []*request, cfg.Workers),
		conns:    map[net.Conn]struct{}{},
	}
	s.workWG.Add(1 + cfg.Workers)
	go s.dispatch()
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until the listener is closed (by
// Shutdown). It returns nil on a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.ln.Store(&ln)
	s.cfg.Log.Info("server listening", "addr", ln.Addr().String())
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		mConns.Add(1)
		go s.handleConn(c)
	}
}

// Addr reports the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	if p := s.ln.Load(); p != nil {
		return (*p).Addr()
	}
	return nil
}

func (s *Server) isDraining() bool {
	s.enqMu.RLock()
	defer s.enqMu.RUnlock()
	return s.draining
}

// Shutdown drains gracefully: stop accepting, reject new applies with
// CodeDraining, finish every admitted request, then stop the workers and
// close remaining connections. ctx bounds the wait; on expiry the error
// is returned after connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cfg.Log.Info("server draining")
	s.enqMu.Lock()
	s.draining = true
	s.enqMu.Unlock()
	if p := s.ln.Load(); p != nil {
		(*p).Close()
	}
	err := waitCtx(ctx, &s.reqWG)
	s.closeOnce.Do(func() { close(s.queue) })
	if err == nil {
		err = waitCtx(ctx, &s.workWG)
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.connMu.Unlock()
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

// Matrices reports how many matrices are registered.
func (s *Server) Matrices() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.matrices)
}

// engines reports the mirrored card's engine count (0 without a card).
func (s *Server) engines() uint32 {
	if s.cfg.Card == nil {
		return 0
	}
	return uint32(s.cfg.Card.Engines())
}

// admit runs admission control for one decoded Apply and either enqueues
// it (returning true) or reports the typed rejection to send.
func (s *Server) admit(req *request) *wire.Error {
	s.enqMu.RLock()
	defer s.enqMu.RUnlock()
	if s.draining {
		return wire.Errf(wire.CodeDraining, "server is shutting down")
	}
	s.reqWG.Add(1)
	select {
	case s.queue <- req:
		mQueueDepth.Add(1)
		return nil
	default:
		s.reqWG.Done()
		return wire.Errf(wire.CodeOverloaded, "admission queue full (%d deep)", s.cfg.QueueDepth)
	}
}

// dispatch pulls admitted requests and coalesces them into batches.
func (s *Server) dispatch() {
	defer s.workWG.Done()
	defer close(s.batches)
	for {
		req, ok := <-s.queue
		if !ok {
			return
		}
		mQueueDepth.Add(-1)
		s.batches <- s.collect(req)
	}
}

// collect grows a batch around first: same matrix, up to MaxBatch
// requests, waiting at most Linger for stragglers. A request for a
// different matrix flushes the current batch and seeds the next one.
func (s *Server) collect(first *request) []*request {
	batch := []*request{first}
	if s.cfg.MaxBatch <= 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.Linger)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case req, ok := <-s.queue:
			if !ok {
				return batch
			}
			mQueueDepth.Add(-1)
			if req.mat != batch[0].mat {
				s.batches <- batch
				batch = []*request{req}
				continue
			}
			batch = append(batch, req)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// worker executes batches until the batch channel closes.
func (s *Server) worker() {
	defer s.workWG.Done()
	for batch := range s.batches {
		s.runBatch(batch)
	}
}

// runBatch serves one coalesced batch: drop abandoned and stale requests,
// mirror the batch as a single descriptor job on the card's engine pool,
// then apply the prepared matrix to each vector, reusing pooled result
// buffers.
func (s *Server) runBatch(batch []*request) {
	now := time.Now()
	live := batch[:0]
	var latest time.Time
	for _, req := range batch {
		if s.abandoned(req) {
			continue
		}
		if now.After(req.deadline) {
			req.qspan.Annotate("expired in queue")
			req.qspan.End()
			s.finishErr(req, wire.Errf(wire.CodeDeadline,
				"deadline expired after %v in queue", now.Sub(req.enqueued).Round(time.Microsecond)))
			continue
		}
		req.qspan.End()
		mWaitSec.Observe(now.Sub(req.enqueued).Seconds())
		if req.deadline.After(latest) {
			latest = req.deadline
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	mBatchSize.Observe(float64(len(live)))

	// One dispatch span per coalesced batch, hung under the first sampled
	// request (coalescing merges requests from different traces; the batch
	// has to pick one parent). It wraps the card job and every apply.
	bctx := trace.Context{}
	var bsp trace.Span
	for _, req := range live {
		if req.tc.Sampled() {
			bctx, bsp = trace.Start(req.tc, "server", "dispatch")
			bsp.Annotate(fmt.Sprintf("batch of %d", len(live)))
			break
		}
	}
	defer bsp.End()

	if s.cfg.Card != nil {
		// One descriptor job per coalesced batch: config-load, doorbell and
		// status-poll cost is paid once for up to MaxBatch vectors. The
		// context carries the latest live deadline, so a batch nobody is
		// waiting for anymore aborts while queued for an engine. Tile
		// requests narrow the descriptor to the rows actually computed, so
		// a shard's card pays for its share of the matrix, not all of it.
		rows := 0
		for _, req := range live {
			if r := s.requestRows(req); r > rows {
				rows = r
			}
		}
		ctx, cancel := context.WithDeadline(trace.NewContext(context.Background(), bctx), latest)
		err := s.cfg.Card.RunHMVPCtx(ctx, live[0].mat.descriptor(uint32(rows)))
		cancel()
		if err != nil {
			for _, req := range live {
				if time.Now().After(req.deadline) || errors.Is(err, context.DeadlineExceeded) {
					s.finishErr(req, wire.Errf(wire.CodeDeadline, "deadline expired on the engine queue"))
				} else {
					s.finishErr(req, wire.Errf(wire.CodeInternal, "accelerator job failed: %v", err))
				}
			}
			return
		}
	}

	r := s.cfg.Params.R
	for _, req := range live {
		if s.abandoned(req) {
			continue // the caller hung up during the card job or an earlier serve
		}
		if time.Now().After(req.deadline) {
			s.finishErr(req, wire.Errf(wire.CodeDeadline, "deadline expired before service"))
			continue
		}
		t0 := time.Now()
		mat := req.mat
		sctx, ssp := trace.Start(req.tc, "server", "serve")
		rec := trace.NewStageRecorder(sctx)
		if req.tiles != nil {
			s.runTileRequest(req, t0, rec, &ssp)
			continue
		}
		res := mat.getResult()
		if err := mat.pm.ApplyIntoSink(res, req.vec, sinkOf(rec)); err != nil {
			mat.putResult(res)
			ssp.EndErr(err)
			s.finishErr(req, wire.Errf(wire.CodeBadRequest, "apply: %v", err))
			continue
		}
		payload := wire.EncodeResult(r, wire.Result{
			M:      uint32(res.M),
			N:      uint32(res.N),
			Packed: res.Packed,
		})
		mat.putResult(res)
		mServeSec.Observe(time.Since(t0).Seconds())
		mApplies.Inc()
		rec.Emit("kernel")
		ssp.End()
		if req.tc.Sampled() {
			s.cfg.Log.Debug("apply served",
				"trace_id", req.tc.Trace.String(),
				"dur", time.Since(t0),
				"rows", mat.handle.Rows)
		}
		s.finish(req, wire.MsgResult, payload)
	}
}

// sinkOf converts a possibly-nil *StageRecorder into a StageSink without
// producing a typed-nil interface (which the kernel would dereference).
func sinkOf(rec *trace.StageRecorder) obs.StageSink {
	if rec == nil {
		return nil
	}
	return rec
}

// runTileRequest serves the tile-subset half of runBatch: only the listed
// row tiles are computed, and they come back labelled so the coordinator
// can place each at its index in the gathered result.
func (s *Server) runTileRequest(req *request, t0 time.Time, rec *trace.StageRecorder, ssp *trace.Span) {
	p := s.cfg.Params
	mat := req.mat
	tiles := make([]int, len(req.tiles))
	out := make([]*rlwe.Ciphertext, len(req.tiles))
	for i, ti := range req.tiles {
		tiles[i] = int(ti)
		out[i] = &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	}
	if err := mat.pm.ApplyTiles(out, tiles, req.vec, sinkOf(rec)); err != nil {
		ssp.EndErr(err)
		s.finishErr(req, wire.Errf(wire.CodeBadRequest, "tile apply: %v", err))
		return
	}
	payload := wire.EncodeTileResult(p.R, wire.TileResult{
		M:      mat.handle.Rows,
		N:      uint32(p.R.N),
		Tiles:  req.tiles,
		Packed: out,
	})
	mServeSec.Observe(time.Since(t0).Seconds())
	mApplies.Inc()
	mTilesServed.Add(uint64(len(req.tiles)))
	rec.Emit("kernel")
	ssp.Annotate(fmt.Sprintf("%d tiles", len(req.tiles)))
	ssp.End()
	if req.tc.Sampled() {
		s.cfg.Log.Debug("tile apply served",
			"trace_id", req.tc.Trace.String(),
			"dur", time.Since(t0),
			"tiles", len(req.tiles))
	}
	s.finish(req, wire.MsgTileResult, payload)
}

// requestRows is the row count a request actually computes: the whole
// matrix for a full apply, the subset's rows for a tile apply.
func (s *Server) requestRows(req *request) int {
	if req.tiles == nil {
		return int(req.mat.handle.Rows)
	}
	rows := 0
	for _, ti := range req.tiles {
		rows += req.mat.pm.TileRows(int(ti))
	}
	return rows
}

// abandoned retires a request whose connection's read loop has ended —
// the caller hung up (a cancelled hedge) or the stream broke — without
// spending an engine job or a kernel apply on an answer nobody can read.
// It reports whether the request was dropped.
func (s *Server) abandoned(req *request) bool {
	if !req.conn.gone.Load() {
		return false
	}
	req.qspan.Annotate("abandoned")
	req.qspan.End()
	mAbandoned.Inc()
	s.reqWG.Done()
	return true
}

// finish sends a success response and retires the request.
func (s *Server) finish(req *request, t wire.MsgType, payload []byte) {
	req.conn.send(t, req.seq, payload)
	s.reqWG.Done()
}

// finishErr sends a typed failure and retires the request.
func (s *Server) finishErr(req *request, e *wire.Error) {
	mErrors.Inc()
	countReject(e)
	req.conn.send(wire.MsgError, req.seq, e.Encode())
	s.reqWG.Done()
}

// descriptor builds the card-side job configuration for one batch over
// this matrix (fixed DDR layout; the simulation models dispatch cost, not
// data placement). rows narrows the job to the rows the batch computes —
// a tile subset on a shard node — so the card's latency model charges for
// the work actually done.
func (m *regMatrix) descriptor(rows uint32) *rt.HMVPDescriptor {
	if rows == 0 || rows > m.handle.Rows {
		rows = m.handle.Rows
	}
	return &rt.HMVPDescriptor{
		Rows:         rows,
		Cols:         m.handle.Cols,
		MatrixAddr:   0x1000_0000,
		VectorAddr:   0x2000_0000,
		KeyAddr:      0x3000_0000,
		ResultAddr:   0x4000_0000,
		PackRowsLog2: m.packLog2,
	}
}
