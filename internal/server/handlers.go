package server

// The handlers chamserve installs in its front end: key install, matrix
// registration, and the one admission path every Apply takes to the
// queue.

import (
	"context"
	"crypto/sha256"
	"math/bits"
	"time"

	"cham/internal/core"
	"cham/internal/obs/trace"
	rt "cham/internal/runtime"
	"cham/internal/wire"
)

// handleSetupKeys installs the packing-key set. One key set per server:
// re-sending the same set (by canonical hash) is idempotent, a different
// set is a conflict — registered matrices are prepared against the
// installed keys and silently swapping them would corrupt results.
func (s *Server) handleSetupKeys(payload []byte) (wire.MsgType, []byte, *wire.Error) {
	keys, err := wire.DecodeSetupKeys(s.cfg.Params.R, payload)
	if err != nil {
		return 0, nil, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err)
	}
	// Hash the canonical re-encoding, not the received payload, so the
	// idempotency check is about key content rather than byte layout.
	hash := wire.KeyHash(s.cfg.Params.R, keys)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.haveKeys {
		if s.keyHash == hash {
			return wire.MsgSetupKeysOK, wire.SetupKeysOK{KeyHash: hash}.Encode(), nil
		}
		return 0, nil, wire.Errf(wire.CodeKeysConflict,
			"server already holds key set %x", s.keyHash[:8])
	}
	ev, err := core.NewEvaluatorFromKeys(s.cfg.Params, keys)
	if err != nil {
		return 0, nil, wire.Errf(wire.CodeBadRequest, "setup keys: %v", err)
	}
	ev.Workers = s.cfg.EvalWorkers
	s.ev = ev
	s.keyHash = hash
	s.haveKeys = true
	return wire.MsgSetupKeysOK, wire.SetupKeysOK{KeyHash: hash}.Encode(), nil
}

// handleRegisterMatrix prepares a matrix once and names it by content
// hash. Re-registering is idempotent and cheap: the hash lookup answers
// from the registry without touching the NTT. In LazyTiles mode no tile is
// prepared yet — the cleartext is retained and tiles materialize on first
// use.
func (s *Server) handleRegisterMatrix(payload []byte) (wire.MsgType, []byte, *wire.Error) {
	s.mu.RLock()
	ev := s.ev
	s.mu.RUnlock()
	if ev == nil {
		return 0, nil, wire.Errf(wire.CodeKeysRequired, "register matrix before SetupKeys")
	}
	// The RegisterMatrix layout is canonical (rows, cols, the one width that
	// fits the largest entry, row-major values; the decoder refuses any
	// other), so the payload hash IS wire.MatrixID of the decoded matrix.
	id := sha256.Sum256(payload)
	s.mu.RLock()
	reg := s.matrices[id]
	s.mu.RUnlock()
	if reg != nil {
		return wire.MsgMatrixHandle, reg.handle.Encode(), nil
	}
	A, err := wire.DecodeRegisterMatrix(s.cfg.Params.T.Q, payload)
	if err != nil {
		return 0, nil, wire.Errf(wire.CodeBadRequest, "register matrix: %v", err)
	}
	// The card job every batch over this matrix runs as: its geometry and
	// pack-tree depth (the largest padded tile). The card runs no kernel,
	// so no operand is placed in its memory and every address is 0. A
	// matrix the card cannot run is refused here, not at every apply.
	desc := rt.HMVPDescriptor{
		Rows:         uint32(len(A)),
		Cols:         uint32(len(A[0])),
		PackRowsLog2: uint8(bits.TrailingZeros(uint(core.MaxTilePad(len(A), s.cfg.Params.R.N)))),
	}
	if s.cfg.Card != nil {
		if _, err := desc.Words(); err != nil {
			return 0, nil, wire.Errf(wire.CodeBadRequest, "register matrix: %v", err)
		}
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
		return 0, nil, wire.Errf(wire.CodeBadRequest, "prepare: %v", err)
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
		desc: desc,
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
	return wire.MsgMatrixHandle, reg.handle.Encode(), nil
}

// admit is the server's Compute handler: it validates one decoded Apply
// against the registry, prepares any tile it needs that is still missing
// — before the queue, so batch workers never block on the preparation
// lock — and enqueues it for the batch workers, who reply later; a
// rejection, a full queue's typed overload included, is replied at once.
func (s *Server) admit(ctx context.Context, a wire.Apply, reply func([]byte, *wire.Error)) {
	if e := s.enqueue(ctx, a, reply); e != nil {
		reply(nil, e)
	}
}

// enqueue validates and queues one Apply, or says why not.
func (s *Server) enqueue(ctx context.Context, a wire.Apply, reply func([]byte, *wire.Error)) *wire.Error {
	s.mu.RLock()
	haveKeys, reg := s.haveKeys, s.matrices[a.ID]
	s.mu.RUnlock()
	if !haveKeys {
		return wire.Errf(wire.CodeKeysRequired, "apply before SetupKeys")
	}
	if reg == nil {
		return wire.Errf(wire.CodeUnknownMatrix, "matrix %x not registered", a.ID[:8])
	}
	for _, ti := range a.Tiles {
		if ti >= reg.handle.Tiles {
			return wire.Errf(wire.CodeBadRequest,
				"tile %d out of range (matrix has %d tiles)", ti, reg.handle.Tiles)
		}
	}
	// A malformed vector is refused before any tile is prepared for it.
	if err := reg.pm.CheckVector(a.Vector); err != nil {
		return wire.Errf(wire.CodeBadRequest, "%v", err)
	}
	if we := s.ensureTiles(reg, a.Tiles); we != nil {
		return we
	}
	deadline, _ := ctx.Deadline()
	req := &request{
		mat:      reg,
		vec:      a.Vector,
		tiles:    a.Tiles,
		ctx:      ctx,
		reply:    reply,
		enqueued: time.Now(),
		deadline: deadline,
		tc:       trace.FromContext(ctx),
	}
	_, req.qspan = trace.Start(req.tc, "server", "queue")
	select {
	case s.queue <- req:
		mQueueDepth.Add(1)
		return nil
	default:
		e := wire.Errf(wire.CodeOverloaded, "admission queue full (%d deep)", s.cfg.QueueDepth)
		req.qspan.EndErr(e)
		return e
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
