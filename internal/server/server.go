// Package server is chamserve's core: a TCP job service that turns the
// in-process HMVP engine into a networked accelerator tier. Clients
// register cleartext matrices (named by content hash, prepared once into
// evaluation-ready form) and stream encrypted vectors at them; the server
// coalesces concurrent single-vector requests into batches, runs each
// batch's applies as one job on an engine of the accelerator runtime,
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
	"runtime"
	"sync"
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
	// EvalWorkers is the per-apply parallelism of the shared evaluator
	// (Evaluator.Workers). Default 0 = GOMAXPROCS.
	EvalWorkers int
	// MaxFrame bounds one accepted wire frame. Default wire.DefaultMaxFrame.
	MaxFrame uint32
	// Card, when non-nil, runs every dispatched batch as one job on the
	// simulated accelerator: the batch's applies are the job's work, done
	// while it holds an engine, and a job the card fails is replayed. There
	// is one batch executor per engine; without a card, GOMAXPROCS.
	Card *rt.Runtime
	// LazyTiles is the shard mode of the cluster tier: RegisterMatrix
	// retains the cleartext matrix and prepares no tiles upfront; each row
	// tile is prepared on first use (an Apply whose tile list names it, or
	// a full Apply, which prepares everything). A shard node that normally
	// serves its own tile range can therefore take over any tile after a
	// peer dies, paying the preparation cost only on failover.
	LazyTiles bool
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
// desc is the card job every batch over it runs as; A is retained only in
// LazyTiles mode, where prepMu serializes on-demand tile preparation.
type regMatrix struct {
	pm     *core.PreparedMatrix
	handle wire.MatrixHandle
	desc   rt.HMVPDescriptor
	pool   sync.Pool // *core.Result

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

// request is one admitted Apply, from enqueue to response. tiles nil
// means every tile; otherwise only the listed row tiles are computed.
// compute leaves the answer in reply or, failing, in err.
type request struct {
	mat      *regMatrix
	vec      []*rlwe.Ciphertext
	tiles    []uint32
	conn     *Conn
	seq      uint16
	enqueued time.Time
	deadline time.Time
	tc       trace.Context // propagated from the request frame's trace header
	qspan    trace.Span    // admission → batch pickup (inert when unsampled)
	reply    []byte
	err      *wire.Error
}

// Server is a running chamserve instance: the wire front end plus the
// matrix registry, the admission queue and the batch workers behind it.
type Server struct {
	FrontEnd
	cfg Config

	mu       sync.RWMutex // guards ev, haveKeys, keyHash, matrices
	ev       *core.Evaluator
	haveKeys bool
	keyHash  [32]byte
	matrices map[[32]byte]*regMatrix

	queue   chan *request
	batches chan []*request
	// stop ends the dispatcher. The queue itself is never closed: a
	// handler that passed the drain barrier may still be on its way to
	// enqueue when a Shutdown gives up waiting.
	stop     chan struct{}
	stopOnce sync.Once

	workWG sync.WaitGroup // dispatcher + executors
}

// New builds a server and starts its dispatcher and batch executors, one
// per card engine (GOMAXPROCS without a card); call Serve (or
// ListenAndServe) to accept connections.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	executors := runtime.GOMAXPROCS(0)
	if cfg.Card != nil {
		executors = cfg.Card.Engines()
	}
	s := &Server{
		FrontEnd: FrontEnd{
			Params:          cfg.Params,
			MaxFrame:        cfg.MaxFrame,
			DefaultDeadline: cfg.DefaultDeadline,
			Log:             cfg.Log,
			MaxBatch:        uint32(cfg.MaxBatch),
			Conns:           mConns,
			bytesRx:         mBytesRx,
			bytesTx:         mBytesTx,
			errs:            mErrors,
			requests:        mRequests,
			rejects:         mRejects,
		},
		cfg:      cfg,
		matrices: map[[32]byte]*regMatrix{},
		queue:    make(chan *request, cfg.QueueDepth),
		batches:  make(chan []*request, executors),
		stop:     make(chan struct{}),
	}
	s.Engines = s.engines
	s.Control = map[wire.MsgType]func([]byte) (wire.MsgType, []byte, *wire.Error){
		wire.MsgSetupKeys:      s.handleSetupKeys,
		wire.MsgRegisterMatrix: s.handleRegisterMatrix,
	}
	s.Compute = s.admit
	s.workWG.Add(1 + executors)
	go s.dispatch()
	for i := 0; i < executors; i++ {
		go s.executor()
	}
	return s, nil
}

// Shutdown drains gracefully: the front end stops accepting, rejects new
// applies with CodeDraining, waits for every admitted request and closes
// the connections; then the dispatcher and executors stop. ctx bounds the
// wait; on expiry its error is returned and requests still queued go
// unanswered (their connections are closed).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.FrontEnd.Shutdown(ctx)
	s.stopOnce.Do(func() { close(s.stop) })
	if err == nil {
		err = waitCtx(ctx, &s.workWG)
	}
	return err
}

// engines reports the card's engine count (0 without a card).
func (s *Server) engines() uint32 {
	if s.cfg.Card == nil {
		return 0
	}
	return uint32(s.cfg.Card.Engines())
}

// dispatch pulls admitted requests and coalesces them into batches.
func (s *Server) dispatch() {
	defer s.workWG.Done()
	defer close(s.batches)
	for {
		select {
		case req := <-s.queue:
			mQueueDepth.Add(-1)
			s.batches <- s.collect(req)
		case <-s.stop:
			return
		}
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
		case req := <-s.queue:
			mQueueDepth.Add(-1)
			if req.mat != batch[0].mat {
				s.batches <- batch
				batch = []*request{req}
				continue
			}
			batch = append(batch, req)
		case <-timer.C:
			return batch
		case <-s.stop:
			return batch
		}
	}
	return batch
}

// executor runs batches until the batch channel closes.
func (s *Server) executor() {
	defer s.workWG.Done()
	for batch := range s.batches {
		s.runBatch(batch)
	}
}

// runBatch serves one coalesced batch: drop abandoned and stale requests,
// compute the rest as the work of one card job — directly without a card —
// and then answer each of them once.
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

	work := func() error {
		for _, req := range live {
			s.compute(req)
		}
		return nil
	}
	var err error
	if s.cfg.Card == nil {
		work()
	} else {
		// The job runs under the latest live deadline, so a batch nobody is
		// waiting for anymore aborts while queued for an engine; config load,
		// doorbell and status read are paid once for up to MaxBatch vectors.
		ctx, cancel := context.WithDeadline(trace.NewContext(context.Background(), bctx), latest)
		err = s.cfg.Card.RunJob(ctx, &live[0].mat.desc, work)
		cancel()
	}
	for _, req := range live {
		switch {
		case err != nil && (time.Now().After(req.deadline) || errors.Is(err, context.DeadlineExceeded)):
			s.finishErr(req, wire.Errf(wire.CodeDeadline, "deadline expired on the engine queue"))
		case err != nil:
			s.finishErr(req, wire.Errf(wire.CodeInternal, "accelerator job failed: %v", err))
		case s.abandoned(req):
			// The caller hung up while the batch ran: nothing is sent.
		case req.err != nil:
			s.finishErr(req, req.err)
		default:
			if req.tiles != nil {
				mTilesServed.Add(uint64(len(req.tiles)))
			}
			mApplies.Inc()
			s.finish(req, req.reply)
		}
	}
}

// compute is one request's share of a batch's work, skipped once its
// caller is gone: its row tiles (nil = all) are applied into a result
// buffer from the matrix's pool — indexed by tile, so a subset uses the
// slots of the tiles it names — and encoded as one Result, labelled with a
// subset's tiles so the coordinator can place each at its index in the
// gathered result. The buffer goes back to the pool once the reply is
// encoded. A replayed job computes again and overwrites reply and err,
// with the same bytes for the same inputs.
func (s *Server) compute(req *request) {
	req.reply, req.err = nil, nil
	if req.conn.gone.Load() {
		return // runBatch counts it abandoned
	}
	t0 := time.Now()
	r := s.cfg.Params.R
	mat := req.mat
	sctx, ssp := trace.Start(req.tc, "server", "serve")
	rec := trace.NewStageRecorder(sctx)
	res := mat.getResult()
	out, tiles := res.Packed, []int(nil)
	if req.tiles != nil {
		out, tiles = make([]*rlwe.Ciphertext, len(req.tiles)), make([]int, len(req.tiles))
		for i, ti := range req.tiles {
			out[i], tiles[i] = res.Packed[ti], int(ti)
		}
	}
	if err := mat.pm.ApplyTiles(out, tiles, req.vec, sinkOf(rec)); err != nil {
		mat.putResult(res)
		ssp.EndErr(err)
		req.err = wire.Errf(wire.CodeBadRequest, "apply: %v", err)
		return
	}
	req.reply = wire.EncodeResult(r, wire.Result{M: mat.handle.Rows, N: uint32(r.N), Tiles: req.tiles, Packed: out})
	if req.tiles != nil {
		ssp.Annotate(fmt.Sprintf("%d tiles", len(req.tiles)))
	}
	mat.putResult(res)
	mServeSec.Observe(time.Since(t0).Seconds())
	rec.Emit("kernel")
	ssp.End()
	if req.tc.Sampled() {
		s.cfg.Log.Debug("apply served",
			"trace_id", req.tc.Trace.String(),
			"dur", time.Since(t0),
			"tiles", len(out))
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

// abandoned retires a request whose connection's read loop has ended —
// the caller hung up (a cancelled hedge) or the stream broke — without
// sending an answer nobody can read. It reports whether the request was
// dropped.
func (s *Server) abandoned(req *request) bool {
	if !req.conn.gone.Load() {
		return false
	}
	req.qspan.Annotate("abandoned")
	req.qspan.End()
	mAbandoned.Inc()
	s.done()
	return true
}

// finish sends the request's Result and retires it.
func (s *Server) finish(req *request, payload []byte) {
	req.conn.send(wire.MsgResult, req.seq, payload)
	s.done()
}

// finishErr sends a typed failure and retires the request.
func (s *Server) finishErr(req *request, e *wire.Error) {
	req.conn.sendErr(req.seq, e)
	s.done()
}
