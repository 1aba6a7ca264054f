package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cham/internal/core"
	"cham/internal/obs/trace"
	"cham/internal/wire"
)

// serverConn is one client connection. Reads happen on the connection's
// own goroutine; writes are serialized by wmu because batch workers and
// the read loop respond concurrently.
type serverConn struct {
	s   *Server
	c   net.Conn
	br  *bufio.Reader
	wmu sync.Mutex

	hello bool // parameter handshake completed

	// gone is set when the read loop ends — the peer hung up (a hedged
	// scatter leg that lost its race closes its connection) or the stream
	// broke — so nobody can receive what its queued requests would answer.
	gone atomic.Bool
}

// send writes one frame; write errors are swallowed (the read loop will
// observe the broken connection and tear it down).
func (c *serverConn) send(t wire.MsgType, seq uint16, payload []byte) {
	buf := wire.AppendFrame(nil, t, seq, payload)
	c.wmu.Lock()
	_, err := c.c.Write(buf)
	c.wmu.Unlock()
	if err == nil {
		mBytesTx.Add(uint64(len(buf)))
	}
}

// sendErr answers a request with a typed error.
func (c *serverConn) sendErr(seq uint16, e *wire.Error) {
	mErrors.Inc()
	countReject(e)
	c.send(wire.MsgError, seq, e.Encode())
}

// handleConn runs one connection's read loop until the peer hangs up, a
// frame is malformed beyond recovery, or the server closes the socket.
func (s *Server) handleConn(nc net.Conn) {
	c := &serverConn{s: s, c: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	defer func() {
		c.gone.Store(true)
		s.connMu.Lock()
		delete(s.conns, nc)
		s.connMu.Unlock()
		nc.Close()
		mConns.Add(-1)
	}()
	for {
		// The trace-aware loop accepts both frame revisions; DisableTrace
		// pins it to strict v1, behaving exactly like a pre-tracing build.
		var t wire.MsgType
		var seq uint16
		var th wire.TraceHeader
		var payload []byte
		var err error
		if s.cfg.DisableTrace {
			t, seq, payload, err = wire.ReadFrame(c.br, s.cfg.MaxFrame)
		} else {
			t, seq, th, payload, err = wire.ReadFrameAny(c.br, s.cfg.MaxFrame)
		}
		if err != nil {
			// Includes io.EOF on clean hang-up and frame-level corruption —
			// after a desync there is no way to resynchronize the stream.
			return
		}
		tc := trace.Context{Trace: trace.TraceID(th.TraceID), Span: trace.SpanID(th.SpanID), Flags: th.Flags}
		mBytesRx.Add(uint64(frameLen(payload)))
		if m, ok := mRequests[t]; ok {
			m.Inc()
		}
		if !c.hello && t != wire.MsgHello && t != wire.MsgPing {
			c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "handshake required before %v", t))
			continue
		}
		switch t {
		case wire.MsgHello:
			s.handleHello(c, seq, payload)
		case wire.MsgSetupKeys:
			s.handleSetupKeys(c, seq, payload)
		case wire.MsgRegisterMatrix:
			s.handleRegisterMatrix(c, seq, payload)
		case wire.MsgApply:
			s.handleApply(c, seq, tc, payload)
		case wire.MsgTileApply:
			s.handleTileApply(c, seq, tc, payload)
		case wire.MsgRegistrySync:
			s.handleRegistrySync(c, seq, payload)
		case wire.MsgTraceHello:
			if s.cfg.DisableTrace {
				// A pre-tracing build does not know the message type.
				c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "unexpected message type %d", t))
				continue
			}
			s.handleTraceHello(c, seq, payload)
		case wire.MsgPing:
			c.send(wire.MsgPong, seq, payload)
		default:
			c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "unexpected message type %d", t))
		}
	}
}

// handleTraceHello acknowledges the trace-capability probe: this build
// accepts version-2 (traced) request frames on any connection.
func (s *Server) handleTraceHello(c *serverConn, seq uint16, payload []byte) {
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

// frameLen is the on-wire size of a frame with this payload.
func frameLen(payload []byte) int { return 12 + len(payload) }

// handleHello checks the parameter handshake bit-for-bit.
func (s *Server) handleHello(c *serverConn, seq uint16, payload []byte) {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "hello: %v", err))
		return
	}
	if want := wire.HelloFor(s.cfg.Params); h != want {
		c.sendErr(seq, wire.Errf(wire.CodeParamsMismatch,
			"client params N=%d levels=%d/%d t=%d, server has N=%d levels=%d/%d t=%d",
			h.RingN, h.Levels, h.NormalLevels, h.T,
			want.RingN, want.Levels, want.NormalLevels, want.T))
		return
	}
	c.hello = true
	ok := wire.HelloOK{
		Hello:    wire.HelloFor(s.cfg.Params),
		Engines:  s.engines(),
		MaxBatch: uint32(s.cfg.MaxBatch),
	}
	c.send(wire.MsgHelloOK, seq, ok.Encode())
}

// handleSetupKeys installs the packing-key set. One key set per server:
// re-sending the same set (by canonical hash) is idempotent, a different
// set is a conflict — registered matrices are prepared against the
// installed keys and silently swapping them would corrupt results.
func (s *Server) handleSetupKeys(c *serverConn, seq uint16, payload []byte) {
	hash, we := s.installKeys(payload)
	if we != nil {
		c.sendErr(seq, we)
		return
	}
	c.send(wire.MsgSetupKeysOK, seq, wire.SetupKeysOK{KeyHash: hash}.Encode())
}

// installKeys is the shared key-install path behind SetupKeys and the
// registry push a joining node receives.
func (s *Server) installKeys(payload []byte) ([32]byte, *wire.Error) {
	r := s.cfg.Params.R
	keys, err := wire.DecodeSetupKeys(r, payload)
	if err != nil {
		return [32]byte{}, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err)
	}
	// Hash the canonical re-encoding, not the received payload, so the
	// idempotency check is about key content rather than byte layout. The
	// canonical form is kept for registry replication to joining nodes.
	canonical := wire.EncodeSetupKeys(r, keys)
	hash := sha256.Sum256(canonical)

	s.mu.Lock()
	if s.haveKeys {
		same := s.keyHash == hash
		installed := s.keyHash
		s.mu.Unlock()
		if same {
			return hash, nil
		}
		return [32]byte{}, wire.Errf(wire.CodeKeysConflict,
			"server already holds key set %x", installed[:8])
	}
	ev, err := core.NewEvaluatorFromKeys(s.cfg.Params, keys)
	if err != nil {
		s.mu.Unlock()
		return [32]byte{}, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err)
	}
	ev.Workers = s.cfg.EvalWorkers
	s.ev = ev
	s.keyHash = hash
	s.keysPayload = canonical
	s.haveKeys = true
	s.mu.Unlock()
	return hash, nil
}

// handleRegisterMatrix prepares a matrix once and names it by content
// hash. Re-registering is idempotent and cheap: the hash lookup answers
// from the registry without touching the NTT.
func (s *Server) handleRegisterMatrix(c *serverConn, seq uint16, payload []byte) {
	reg, we := s.registerPayload(payload)
	if we != nil {
		c.sendErr(seq, we)
		return
	}
	c.send(wire.MsgMatrixHandle, seq, reg.handle.Encode())
}

// registerPayload is the shared registration path behind RegisterMatrix
// and the registry push. In LazyTiles mode no tile is prepared yet — the
// cleartext is retained and tiles materialize on first use.
func (s *Server) registerPayload(payload []byte) (*regMatrix, *wire.Error) {
	s.mu.RLock()
	ev := s.ev
	s.mu.RUnlock()
	if ev == nil {
		return nil, wire.Errf(wire.CodeKeysRequired, "register matrix before SetupKeys")
	}
	// The RegisterMatrix layout is canonical (rows, cols, row-major values),
	// so the payload hash IS wire.MatrixID of the decoded matrix.
	id := sha256.Sum256(payload)
	s.mu.RLock()
	reg := s.matrices[id]
	s.mu.RUnlock()
	if reg != nil {
		return reg, nil
	}
	A, err := wire.DecodeRegisterMatrix(s.cfg.Params.T.Q, payload)
	if err != nil {
		return nil, wire.Errf(wire.CodeBadRequest, "register matrix: %v", err)
	}
	// Prepare outside the lock: it is the expensive half of the pipeline and
	// must not block concurrent applies against other matrices.
	var pm *core.PreparedMatrix
	if s.cfg.LazyTiles {
		pm, err = ev.PrepareTiles(A, []int{})
	} else {
		pm, err = ev.Prepare(A)
	}
	if err != nil {
		return nil, wire.Errf(wire.CodeBadRequest, "prepare: %v", err)
	}
	reg = &regMatrix{
		pm: pm,
		handle: wire.MatrixHandle{
			ID:     id,
			Rows:   uint32(pm.Rows()),
			Cols:   uint32(pm.Cols()),
			Chunks: uint32(pm.Chunks()),
			Tiles:  uint32(pm.Tiles()),
		},
		packLog2: packRowsLog2(pm.Rows(), s.cfg.Params.R.N),
		payload:  append([]byte(nil), payload...),
	}
	if s.cfg.LazyTiles {
		reg.A = A
	}
	s.mu.Lock()
	if prior := s.matrices[id]; prior != nil {
		reg = prior // a concurrent registration won; use its prepared form
	} else {
		s.matrices[id] = reg
		mMatrices.Set(float64(len(s.matrices)))
	}
	s.mu.Unlock()
	return reg, nil
}

// packRowsLog2 is log2 of the largest padded tile for an m-row matrix
// over ring degree n (the card descriptor's pack-tree depth).
func packRowsLog2(m, n int) uint8 {
	rows := m
	if rows > n {
		rows = n
	}
	l := uint8(0)
	for 1<<l < rows {
		l++
	}
	return l
}

// handleApply decodes, validates, and admits one apply request; the
// response is sent later by a batch worker.
func (s *Server) handleApply(c *serverConn, seq uint16, tc trace.Context, payload []byte) {
	s.mu.RLock()
	haveKeys := s.haveKeys
	s.mu.RUnlock()
	if !haveKeys {
		c.sendErr(seq, wire.Errf(wire.CodeKeysRequired, "apply before SetupKeys"))
		return
	}
	a, err := wire.DecodeApply(s.cfg.Params.R, payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "apply: %v", err))
		return
	}
	s.mu.RLock()
	reg := s.matrices[a.ID]
	s.mu.RUnlock()
	if reg == nil {
		c.sendErr(seq, wire.Errf(wire.CodeUnknownMatrix, "matrix %x not registered", a.ID[:8]))
		return
	}
	if s.cfg.LazyTiles {
		// A full apply on a shard node needs every tile; prepare the
		// missing ones before admission so batch workers never block on
		// the preparation lock.
		if we := s.ensureTiles(reg, nil); we != nil {
			c.sendErr(seq, we)
			return
		}
	}
	if len(a.Vector) != int(reg.handle.Chunks) {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest,
			"vector has %d chunks, matrix needs %d", len(a.Vector), reg.handle.Chunks))
		return
	}
	budget := s.cfg.DefaultDeadline
	if a.DeadlineMicros > 0 {
		if d := time.Duration(a.DeadlineMicros) * time.Microsecond; d < budget {
			budget = d
		}
	}
	now := time.Now()
	req := &request{
		mat:      reg,
		vec:      a.Vector,
		conn:     c,
		seq:      seq,
		enqueued: now,
		deadline: now.Add(budget),
		tc:       tc,
	}
	_, req.qspan = trace.Start(tc, "server", "queue")
	if e := s.admit(req); e != nil {
		req.qspan.EndErr(e)
		c.sendErr(seq, e)
	}
}

// ensureTiles prepares any listed tiles that are still missing (nil =
// every tile). The per-matrix lock serializes preparation; applies only
// read tiles that some admission already prepared, so the lock is never
// held on the batch-worker path. Outside LazyTiles mode every tile exists
// and the loop is a cheap no-op scan.
func (s *Server) ensureTiles(reg *regMatrix, tiles []uint32) *wire.Error {
	reg.prepMu.Lock()
	defer reg.prepMu.Unlock()
	nt := int(reg.handle.Tiles)
	for i := 0; i < nt; i++ {
		ti := i
		if tiles != nil {
			if i >= len(tiles) {
				break
			}
			ti = int(tiles[i])
		}
		if reg.pm.HasTile(ti) {
			continue
		}
		if reg.A == nil {
			return wire.Errf(wire.CodeInternal,
				"tile %d unprepared and cleartext not retained (server not in lazy-tile mode)", ti)
		}
		if err := reg.pm.PrepareTile(reg.A, ti); err != nil {
			return wire.Errf(wire.CodeBadRequest, "prepare tile %d: %v", ti, err)
		}
		mTilesPrepared.Inc()
	}
	return nil
}

// handleTileApply serves the coordinator-facing tile-subset request: warm
// requests prepare the tiles and acknowledge; compute requests are
// admitted through the same queue/batcher as full applies.
func (s *Server) handleTileApply(c *serverConn, seq uint16, tc trace.Context, payload []byte) {
	s.mu.RLock()
	haveKeys := s.haveKeys
	s.mu.RUnlock()
	if !haveKeys {
		c.sendErr(seq, wire.Errf(wire.CodeKeysRequired, "tile apply before SetupKeys"))
		return
	}
	a, err := wire.DecodeTileApply(s.cfg.Params.R, payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "tile apply: %v", err))
		return
	}
	s.mu.RLock()
	reg := s.matrices[a.ID]
	s.mu.RUnlock()
	if reg == nil {
		c.sendErr(seq, wire.Errf(wire.CodeUnknownMatrix, "matrix %x not registered", a.ID[:8]))
		return
	}
	for _, ti := range a.Tiles {
		if ti >= reg.handle.Tiles {
			c.sendErr(seq, wire.Errf(wire.CodeBadRequest,
				"tile %d out of range (matrix has %d tiles)", ti, reg.handle.Tiles))
			return
		}
	}
	if we := s.ensureTiles(reg, a.Tiles); we != nil {
		c.sendErr(seq, we)
		return
	}
	if a.Warm {
		// Preparation was the work; acknowledge with an empty result
		// carrying the matrix header.
		ack := wire.EncodeTileResult(s.cfg.Params.R, wire.TileResult{
			M: reg.handle.Rows,
			N: uint32(s.cfg.Params.R.N),
		})
		c.send(wire.MsgTileResult, seq, ack)
		return
	}
	if len(a.Vector) != int(reg.handle.Chunks) {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest,
			"vector has %d chunks, matrix needs %d", len(a.Vector), reg.handle.Chunks))
		return
	}
	budget := s.cfg.DefaultDeadline
	if a.DeadlineMicros > 0 {
		if d := time.Duration(a.DeadlineMicros) * time.Microsecond; d < budget {
			budget = d
		}
	}
	now := time.Now()
	req := &request{
		mat:      reg,
		vec:      a.Vector,
		tiles:    a.Tiles,
		conn:     c,
		seq:      seq,
		enqueued: now,
		deadline: now.Add(budget),
		tc:       tc,
	}
	_, req.qspan = trace.Start(tc, "server", "queue")
	if e := s.admit(req); e != nil {
		req.qspan.EndErr(e)
		c.sendErr(seq, e)
	}
}

// handleRegistrySync replicates the matrix registry. A pull answers with
// the installed key set and every registered matrix in canonical payload
// form (sorted by content hash, so the transfer is deterministic); a push
// installs what it carries — idempotently, since payload hashes are the
// identities — and acknowledges with the resulting registry header.
func (s *Server) handleRegistrySync(c *serverConn, seq uint16, payload []byte) {
	sy, err := wire.DecodeRegistrySync(payload)
	if err != nil {
		c.sendErr(seq, wire.Errf(wire.CodeBadRequest, "registry sync: %v", err))
		return
	}
	if sy.Push {
		if len(sy.Keys) > 0 {
			if _, we := s.installKeys(sy.Keys); we != nil {
				c.sendErr(seq, we)
				return
			}
		}
		for i, m := range sy.Matrices {
			if _, we := s.registerPayload(m); we != nil {
				c.sendErr(seq, wire.Errf(we.Code, "registry push matrix %d: %s", i, we.Detail))
				return
			}
		}
		mRegistrySyncs.Inc()
		s.mu.RLock()
		st := wire.RegistryState{KeyHash: s.keyHash}
		s.mu.RUnlock()
		c.send(wire.MsgRegistryState, seq, st.Encode())
		return
	}
	s.mu.RLock()
	st := wire.RegistryState{KeyHash: s.keyHash, Keys: s.keysPayload}
	ids := make([][32]byte, 0, len(s.matrices))
	for id := range s.matrices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
	for _, id := range ids {
		st.Matrices = append(st.Matrices, s.matrices[id].payload)
	}
	s.mu.RUnlock()
	mRegistrySyncs.Inc()
	c.send(wire.MsgRegistryState, seq, st.Encode())
}
