package server

// The handlers chamserve installs in its front end: key install, matrix
// registration, registry replication, and the one admission path every
// Apply and TileApply takes to the queue.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"sort"
	"time"

	"cham/internal/core"
	"cham/internal/obs/trace"
	"cham/internal/wire"
)

// handleSetupKeys installs the packing-key set. One key set per server:
// re-sending the same set (by canonical hash) is idempotent, a different
// set is a conflict — registered matrices are prepared against the
// installed keys and silently swapping them would corrupt results.
func (s *Server) handleSetupKeys(payload []byte) (wire.MsgType, []byte, *wire.Error) {
	hash, we := s.installKeys(payload)
	if we != nil {
		return 0, nil, we
	}
	return wire.MsgSetupKeysOK, wire.SetupKeysOK{KeyHash: hash}.Encode(), nil
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
func (s *Server) handleRegisterMatrix(payload []byte) (wire.MsgType, []byte, *wire.Error) {
	reg, we := s.registerPayload(payload)
	if we != nil {
		return 0, nil, we
	}
	return wire.MsgMatrixHandle, reg.handle.Encode(), nil
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

// admit is the server's Compute handler: it validates one decoded Apply
// or TileApply against the registry, prepares any tile it needs that is
// still missing — before the queue, so batch workers never block on the
// preparation lock — and enqueues it for the batch workers, who answer it
// later; a full queue is the typed overload rejection. A warm request is
// done once its tiles are prepared and is acknowledged at once.
func (s *Server) admit(ctx context.Context, c *Conn, seq uint16, a wire.TileApply) (wire.MsgType, []byte, *wire.Error) {
	s.mu.RLock()
	haveKeys, reg := s.haveKeys, s.matrices[a.ID]
	s.mu.RUnlock()
	if !haveKeys {
		return 0, nil, wire.Errf(wire.CodeKeysRequired, "apply before SetupKeys")
	}
	if reg == nil {
		return 0, nil, wire.Errf(wire.CodeUnknownMatrix, "matrix %x not registered", a.ID[:8])
	}
	for _, ti := range a.Tiles {
		if ti >= reg.handle.Tiles {
			return 0, nil, wire.Errf(wire.CodeBadRequest,
				"tile %d out of range (matrix has %d tiles)", ti, reg.handle.Tiles)
		}
	}
	if we := s.ensureTiles(reg, a.Tiles); we != nil {
		return 0, nil, we
	}
	if a.Warm {
		// Preparation was the work; acknowledge with an empty result
		// carrying the matrix header.
		return wire.MsgTileResult, wire.EncodeTileResult(s.cfg.Params.R, wire.TileResult{
			M: reg.handle.Rows,
			N: uint32(s.cfg.Params.R.N),
		}), nil
	}
	if len(a.Vector) != int(reg.handle.Chunks) {
		return 0, nil, wire.Errf(wire.CodeBadRequest,
			"vector has %d chunks, matrix needs %d", len(a.Vector), reg.handle.Chunks)
	}
	deadline, _ := ctx.Deadline()
	req := &request{
		mat:      reg,
		vec:      a.Vector,
		tiles:    a.Tiles,
		conn:     c,
		seq:      seq,
		enqueued: time.Now(),
		deadline: deadline,
		tc:       trace.FromContext(ctx),
	}
	_, req.qspan = trace.Start(req.tc, "server", "queue")
	select {
	case s.queue <- req:
		mQueueDepth.Add(1)
		return 0, nil, nil
	default:
		e := wire.Errf(wire.CodeOverloaded, "admission queue full (%d deep)", s.cfg.QueueDepth)
		req.qspan.EndErr(e)
		return 0, nil, e
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

// handleRegistrySync replicates the matrix registry. A pull answers with
// the installed key set and every registered matrix in canonical payload
// form (sorted by content hash, so the transfer is deterministic); a push
// installs what it carries — idempotently, since payload hashes are the
// identities — and acknowledges with the resulting registry header.
func (s *Server) handleRegistrySync(payload []byte) (wire.MsgType, []byte, *wire.Error) {
	sy, err := wire.DecodeRegistrySync(payload)
	if err != nil {
		return 0, nil, wire.Errf(wire.CodeBadRequest, "registry sync: %v", err)
	}
	if sy.Push {
		if len(sy.Keys) > 0 {
			if _, we := s.installKeys(sy.Keys); we != nil {
				return 0, nil, we
			}
		}
		for i, m := range sy.Matrices {
			if _, we := s.registerPayload(m); we != nil {
				return 0, nil, wire.Errf(we.Code, "registry push matrix %d: %s", i, we.Detail)
			}
		}
	}
	s.mu.RLock()
	st := wire.RegistryState{KeyHash: s.keyHash}
	if !sy.Push {
		st.Keys = s.keysPayload
		ids := make([][32]byte, 0, len(s.matrices))
		for id := range s.matrices {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
		for _, id := range ids {
			st.Matrices = append(st.Matrices, s.matrices[id].payload)
		}
	}
	s.mu.RUnlock()
	mRegistrySyncs.Inc()
	return wire.MsgRegistryState, st.Encode(), nil
}
