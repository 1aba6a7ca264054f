package core

// Prepared-matrix HMVP: the per-matrix half of the pipeline (row encode,
// centred lift, forward NTT, Shoup companion tables) is hoisted out of the
// per-vector path, mirroring how CHAM keeps operands resident instead of
// re-streaming them. A PreparedMatrix is built once with Prepare and then
// applied to any number of encrypted vectors; ApplyInto reuses pooled
// scratch end to end, so a warm apply performs zero heap allocations.
//
// Per row, the dot product fuses stage 4's EXTRACTLWES into the inverse
// transform: extraction at index 0 only needs the constant coefficient of
// INTT(acc.B), which is N^{-1}·Σ_j â_j per limb (SumRow), so the B part
// skips its full inverse transforms and polynomial RESCALE entirely.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cham/internal/bfv"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

// preparedTile holds one row tile in evaluation-ready form: every row chunk
// encoded, lifted to the full basis, forward-transformed, with the tile's
// packing scale 2^-ℓ already folded in, plus Shoup companion tables so the
// per-vector MULTPOLY runs at MulShoup speed.
type preparedTile struct {
	rows, mPad int
	rowNTT     [][]*ring.Poly // [row][chunk], NTT domain, full basis
	rowShoup   [][][][]uint64 // [row][chunk] = ShoupPrecompPoly(rowNTT)
}

// PreparedMatrix is a cleartext matrix fixed in evaluation-ready form.
// Build with Evaluator.Prepare (all tiles) or Evaluator.PrepareTiles (a
// subset — the sharded serving tier prepares only the tiles a node owns),
// apply with Apply / ApplyInto / ApplyTiles. The tiles slice always spans
// the full matrix; unprepared entries are nil until PrepareTile fills
// them in. The struct is not internally synchronized: callers interleaving
// PrepareTile with applies must order them (the server holds a per-matrix
// lock across lazy preparation).
type PreparedMatrix struct {
	ev      *Evaluator
	m, cols int
	chunks  int // column chunks = ⌈cols/N⌉
	maxPad  int // largest padded tile row count
	tiles   []*preparedTile
}

// Rows returns the matrix row count m.
func (pm *PreparedMatrix) Rows() int { return pm.m }

// Cols returns the matrix column count n.
func (pm *PreparedMatrix) Cols() int { return pm.cols }

// Chunks returns the number of vector ciphertexts an apply expects.
func (pm *PreparedMatrix) Chunks() int { return pm.chunks }

// Tiles returns the total row-tile count — the number of packed output
// ciphertexts a full apply produces, whether or not every tile is
// currently prepared.
func (pm *PreparedMatrix) Tiles() int { return len(pm.tiles) }

// HasTile reports whether tile ti is prepared and ready to apply.
func (pm *PreparedMatrix) HasTile(ti int) bool {
	return ti >= 0 && ti < len(pm.tiles) && pm.tiles[ti] != nil
}

// TileRows returns the row count of tile ti (the last tile may be short),
// or 0 for an out-of-range index.
func (pm *PreparedMatrix) TileRows(ti int) int {
	if ti < 0 || ti >= len(pm.tiles) {
		return 0
	}
	_, rows, _ := pm.tileBounds(ti)
	return rows
}

// tileBounds returns tile ti's first row, row count, and padded row count.
func (pm *PreparedMatrix) tileBounds(ti int) (base, rows, mPad int) {
	n := pm.ev.P.R.N
	base = ti * n
	rows = pm.m - base
	if rows > n {
		rows = n
	}
	return base, rows, nextPow2(rows)
}

// Prepare encodes, lifts, and forward-transforms all rows of A once
// (the one-time stages 1–2 work of every future apply). The same shape
// rules as MatVec apply.
func (e *Evaluator) Prepare(A [][]uint64) (*PreparedMatrix, error) {
	sp := obs.StartSpan(mPrepareSec)
	pm, err := e.prepareTiles(A, nil)
	if err == nil {
		sp.End()
	}
	return pm, countErr(err)
}

// PrepareTiles is Prepare restricted to the listed row tiles — the shard
// half of the cluster tier, where a node owning a subset of the ring only
// pays for its own tiles. Tile indices may repeat or arrive unordered;
// skipped tiles stay nil until PrepareTile fills them in. An empty
// (non-nil) list prepares nothing but still validates the matrix.
func (e *Evaluator) PrepareTiles(A [][]uint64, tiles []int) (*PreparedMatrix, error) {
	sp := obs.StartSpan(mPrepareSec)
	pm, err := e.prepareTiles(A, tiles)
	if err == nil {
		sp.End()
	}
	return pm, countErr(err)
}

func (e *Evaluator) prepareTiles(A [][]uint64, want []int) (*PreparedMatrix, error) {
	p := e.P
	n := p.R.N
	m := len(A)
	if m == 0 {
		return nil, fmt.Errorf("%w (no rows)", ErrEmptyMatrix)
	}
	cols := len(A[0])
	if cols == 0 {
		return nil, fmt.Errorf("%w (no columns)", ErrEmptyMatrix)
	}
	for i := range A {
		if len(A[i]) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrRaggedMatrix, i, len(A[i]), cols)
		}
	}
	chunks := (cols + n - 1) / n
	nt := (m + n - 1) / n
	pm := &PreparedMatrix{ev: e, m: m, cols: cols, chunks: chunks, tiles: make([]*preparedTile, nt)}
	// Validate every tile's geometry before the expensive transforms start,
	// whether or not it is being prepared now: maxPad must cover any tile a
	// later PrepareTile might add, and key coverage is a property of the
	// matrix, not of the subset.
	for ti := 0; ti < nt; ti++ {
		_, _, mPad := pm.tileBounds(ti)
		if mPad > e.Keys.M {
			return nil, fmt.Errorf("%w: tile of %d rows (keys cover %d)", ErrTileTooLarge, mPad, e.Keys.M)
		}
		if mPad > pm.maxPad {
			pm.maxPad = mPad
		}
	}
	sel := want
	if sel == nil {
		sel = make([]int, nt)
		for ti := range sel {
			sel[ti] = ti
		}
	}
	for _, ti := range sel {
		if ti < 0 || ti >= nt {
			return nil, fmt.Errorf("%w: tile %d of %d", ErrTileIndex, ti, nt)
		}
	}
	var clk obs.StageClock
	clk.Start()
	rs := e.getRowScratch()
	defer e.putRowScratch(rs)
	for _, ti := range sel {
		if pm.tiles[ti] == nil {
			pm.tiles[ti] = e.buildTile(pm, A, ti, rs, &clk)
		}
	}
	clk.Flush()
	return pm, nil
}

// PrepareTile fills in one tile of a sparsely prepared matrix from the
// same cleartext A it was built from — the lazy half of shard failover,
// where a node suddenly asked for a tile it does not own prepares it on
// demand. Idempotent: an already-prepared tile is a no-op. Not safe to
// race with applies; callers hold their per-matrix lock.
func (pm *PreparedMatrix) PrepareTile(A [][]uint64, ti int) error {
	e := pm.ev
	if ti < 0 || ti >= len(pm.tiles) {
		return countErr(fmt.Errorf("%w: tile %d of %d", ErrTileIndex, ti, len(pm.tiles)))
	}
	if pm.tiles[ti] != nil {
		return nil
	}
	if len(A) != pm.m {
		return countErr(fmt.Errorf("%w: matrix has %d rows but prepared shape is %dx%d",
			ErrRaggedMatrix, len(A), pm.m, pm.cols))
	}
	base, rows, _ := pm.tileBounds(ti)
	for i := base; i < base+rows; i++ {
		if len(A[i]) != pm.cols {
			return countErr(fmt.Errorf("%w: row %d has %d columns, want %d", ErrRaggedMatrix, i, len(A[i]), pm.cols))
		}
	}
	sp := obs.StartSpan(mPrepareSec)
	var clk obs.StageClock
	clk.Start()
	rs := e.getRowScratch()
	pm.tiles[ti] = e.buildTile(pm, A, ti, rs, &clk)
	e.putRowScratch(rs)
	clk.Flush()
	sp.End()
	return nil
}

// buildTile runs stages 1–2 (encode, centred lift, forward NTT, Shoup
// companions) for one row tile. Encoding scratch is pooled; every
// long-lived buffer below is carved from a handful of per-tile slabs (one
// coefficient slab, one Shoup slab, and flat header arrays) instead of
// row×chunk×limb individual allocations — cold Prepare used to cost
// thousands of allocs per call.
func (e *Evaluator) buildTile(pm *PreparedMatrix, A [][]uint64, ti int, rs *rowScratch, clk *obs.StageClock) *preparedTile {
	p := e.P
	n := p.R.N
	full := p.R.Levels()
	chunks, cols := pm.chunks, pm.cols
	base, rows, mPad := pm.tileBounds(ti)
	scale := p.InvPow2(log2(mPad))
	t := &preparedTile{
		rows:     rows,
		mPad:     mPad,
		rowNTT:   make([][]*ring.Poly, rows),
		rowShoup: make([][][][]uint64, rows),
	}
	nPolys := rows * chunks
	polys := make([]ring.Poly, nPolys)
	polyPtrs := make([]*ring.Poly, nPolys)
	shoupPtrs := make([][][]uint64, nPolys)
	limbHdrs := make([][]uint64, 2*nPolys*full)
	coeffSlab := make([]uint64, nPolys*full*n)
	shoupSlab := make([]uint64, nPolys*full*n)
	for k := 0; k < nPolys; k++ {
		pc := limbHdrs[:full:full]
		sh := limbHdrs[full : 2*full : 2*full]
		limbHdrs = limbHdrs[2*full:]
		for l := 0; l < full; l++ {
			pc[l], coeffSlab = coeffSlab[:n:n], coeffSlab[n:]
			sh[l], shoupSlab = shoupSlab[:n:n], shoupSlab[n:]
		}
		polys[k].Coeffs = pc
		polyPtrs[k] = &polys[k]
		shoupPtrs[k] = sh
	}
	for i := 0; i < rows; i++ {
		rp := polyPtrs[i*chunks : (i+1)*chunks : (i+1)*chunks]
		rsh := shoupPtrs[i*chunks : (i+1)*chunks : (i+1)*chunks]
		for c := 0; c < chunks; c++ {
			lo, hi := c*n, (c+1)*n
			if hi > cols {
				hi = cols
			}
			pt := rp[c]
			p.EncodeRowInto(rs.pt, A[base+i][lo:hi], scale)
			clk.Mark(obs.StageEncode)
			p.LiftInto(pt, rs.pt)
			clk.Mark(obs.StageLift)
			// The companion pass runs inside the transform, limb by limb,
			// and is charged to it.
			p.R.NTTShoupInto(rsh[c], pt)
			clk.Mark(obs.StageNTT)
		}
		t.rowNTT[i] = rp
		t.rowShoup[i] = rsh
	}
	return t
}

// NewResult allocates a result of the right shape for ApplyInto.
func (pm *PreparedMatrix) NewResult() *Result {
	p := pm.ev.P
	res := &Result{M: pm.m, N: p.R.N, Packed: make([]*rlwe.Ciphertext, len(pm.tiles))}
	for i := range res.Packed {
		res.Packed[i] = &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	}
	return res
}

// Apply computes A·v for one encrypted vector (the per-vector stages of the
// pipeline only), allocating a fresh Result.
func (pm *PreparedMatrix) Apply(ctV []*rlwe.Ciphertext) (*Result, error) {
	res := pm.NewResult()
	if err := pm.ApplyInto(res, ctV); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyInto is Apply writing into a caller-owned Result (from NewResult).
// All intermediates come from pooled scratch: a warm call does not touch
// the heap.
func (pm *PreparedMatrix) ApplyInto(res *Result, ctV []*rlwe.Ciphertext) error {
	return pm.apply([]*Result{res}, nil, [][]*rlwe.Ciphertext{ctV}, nil)
}

// ApplyBatchInto computes A·v_k for every vector of a batch — the column
// blocks of an encrypted matrix-matrix product — into caller-owned Results
// (from NewResult, one per vector). vecs[k] must each come from
// EncryptVector with the matrix's column count. A warm call performs zero
// heap allocations regardless of the batch size — the invariant the
// chamnp MatMul path is gated on.
func (pm *PreparedMatrix) ApplyBatchInto(res []*Result, vecs [][]*rlwe.Ciphertext) error {
	return pm.apply(res, nil, vecs, nil)
}

// ApplyTiles computes only the listed row tiles of A·v, writing tile
// tiles[k]'s packed ciphertext into out[k] — the shard-side apply of the
// cluster tier; a nil tiles means every tile in order, which is ApplyInto
// on bare ciphertexts. Each out entry must be shaped like a NewResult
// tile. Because every tile's ciphertext depends only on its own rows, the
// results are bit-identical to the corresponding entries of a full
// ApplyInto (the gather-merge invariant the cluster tests pin down).
// Per-stage kernel durations are also routed to sink when it is non-nil
// (a traced request's recorder; it must tolerate concurrent StageAdd
// calls).
func (pm *PreparedMatrix) ApplyTiles(out []*rlwe.Ciphertext, tiles []int, ctV []*rlwe.Ciphertext, sink obs.StageSink) error {
	return pm.apply([]*Result{{Packed: out}}, tiles, [][]*rlwe.Ciphertext{ctV}, sink)
}

// apply is the one prepared apply path, under the package's telemetry:
// vecs[k] times the listed tiles (nil = every tile) lands in
// res[k].Packed, one slot per listed tile. A full apply is the tile apply
// over every tile and a single vector is a batch of one, so ApplyInto,
// ApplyBatchInto and ApplyTiles only arrange their arguments. Everything
// is validated before any transform runs — a short batch, a missing
// column block or a misshaped output fails with a typed sentinel up front
// instead of halfway through the fan-out — and scratch is checked out
// once for the whole batch, so a warm call performs zero heap allocations
// whatever the batch size.
func (pm *PreparedMatrix) apply(res []*Result, tiles []int, vecs [][]*rlwe.Ciphertext, sink obs.StageSink) error {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	rows, err := pm.validate(res, tiles, vecs)
	if err != nil {
		return countErr(err)
	}
	e := pm.ev
	e.ensureInvN()
	sc := e.getApplyScratch(pm.chunks, pm.maxPad)
	defer e.putApplyScratch(sc)
	sc.sink = sink
	sc.clk.Attach(sink)
	for k, ctV := range vecs {
		if err := e.loadVector(sc, ctV); err != nil {
			return countErr(err)
		}
		for j, out := range res[k].Packed {
			ti := j
			if tiles != nil {
				ti = tiles[j]
			}
			t := pm.tiles[ti]
			if err := e.tileApply(out, sc, t, nil, 0, t.rows, t.mPad); err != nil {
				return countErr(err)
			}
		}
		res[k].M, res[k].N = pm.m, e.P.R.N
	}
	if on {
		mApplyPrepared.Observe(time.Since(t0).Seconds())
		mAppliesPrepared.Add(uint64(len(vecs)))
		mRows.Add(uint64(rows * len(vecs)))
	}
	return nil
}

// validate checks a whole apply against the prepared shape — every
// vector's chunk count and entries, every listed tile's index and
// preparation, every output's slot count and polynomial shapes — and
// returns the row count one vector's listed tiles cover. The %w wrapping
// keeps errors.Is on the sentinels working through the per-index context.
func (pm *PreparedMatrix) validate(res []*Result, tiles []int, vecs [][]*rlwe.Ciphertext) (rows int, err error) {
	p := pm.ev.P
	if len(vecs) == 0 {
		return 0, fmt.Errorf("%w: empty batch", ErrVectorLength)
	}
	if len(res) != len(vecs) {
		return 0, fmt.Errorf("%w: batch has %d vectors but %d result slots", ErrResultShape, len(vecs), len(res))
	}
	for k, ctV := range vecs {
		if len(ctV) != pm.chunks {
			return 0, fmt.Errorf("%w: vector %d: matrix has %d column chunks but vector has %d ciphertexts", ErrVectorLength, k, pm.chunks, len(ctV))
		}
		for c, ct := range ctV {
			if ct == nil || ct.B == nil || ct.A == nil {
				return 0, fmt.Errorf("%w: vector %d: ciphertext %d is nil", ErrVectorLength, k, c)
			}
		}
	}
	want := len(pm.tiles)
	if tiles == nil {
		rows = pm.m
		for ti, t := range pm.tiles {
			if t == nil {
				return 0, fmt.Errorf("%w: tile %d (prepared sparsely; use ApplyTiles or PrepareTile)", ErrTileNotPrepared, ti)
			}
		}
	} else {
		want = len(tiles)
		for _, ti := range tiles {
			if ti < 0 || ti >= len(pm.tiles) {
				return 0, fmt.Errorf("%w: tile %d of %d", ErrTileIndex, ti, len(pm.tiles))
			}
			if pm.tiles[ti] == nil {
				return 0, fmt.Errorf("%w: tile %d", ErrTileNotPrepared, ti)
			}
			rows += pm.tiles[ti].rows
		}
	}
	for k, r := range res {
		if r == nil {
			return 0, fmt.Errorf("%w: result %d is nil; allocate with NewResult", ErrResultShape, k)
		}
		if len(r.Packed) != want {
			return 0, fmt.Errorf("%w: result %d holds %d tiles, want %d", ErrResultShape, k, len(r.Packed), want)
		}
		for j, ct := range r.Packed {
			if ct == nil || ct.B == nil || ct.A == nil {
				return 0, fmt.Errorf("%w: result %d tile slot %d is nil; allocate with NewResult", ErrResultShape, k, j)
			}
			if ct.B.Levels() != p.NormalLevels || ct.A.Levels() != p.NormalLevels ||
				len(ct.B.Coeffs[0]) != p.R.N || len(ct.A.Coeffs[0]) != p.R.N {
				return 0, fmt.Errorf("%w: result %d tile slot %d has the wrong shape; allocate with NewResult", ErrResultShape, k, j)
			}
		}
	}
	return rows, nil
}

// --- shared per-vector machinery (used by both apply and MatVec) ---

// rowScratch is the per-worker arena for one row's stages 1–4. The
// a-part needs no accumulator of its own: it MACs straight into the tree
// leaf's deferred full-basis buffer.
type rowScratch struct {
	accB *ring.Poly     // full-basis NTT-domain b accumulator
	pt   *bfv.Plaintext // on-the-fly row encoding (MatVec path)
	lift *ring.Poly     // on-the-fly lifted row (MatVec path)
	clk  obs.StageClock // per-stage wall-time attribution (pooled, no allocs)
}

func (e *Evaluator) getRowScratch() *rowScratch {
	if rs, ok := e.rowPool.Get().(*rowScratch); ok {
		return rs
	}
	r := e.P.R
	full := r.Levels()
	return &rowScratch{
		accB: r.NewPoly(full),
		pt:   e.P.NewPlaintext(),
		lift: r.NewPoly(full),
	}
}

func (e *Evaluator) putRowScratch(rs *rowScratch) {
	rs.clk.Attach(nil) // see putApplyScratch
	e.rowPool.Put(rs)
}

// applyScratch holds the per-call buffers shared across rows: the
// NTT-domain vector chunks and the NTT-resident packing-tree nodes.
type applyScratch struct {
	vNTT []*rlwe.Ciphertext // full basis, NTT domain
	tree []*lwe.PackNode    // NTT-resident; consumed by PackResident
	clk  obs.StageClock     // times the shared vector transforms
	sink obs.StageSink      // traced request's recorder; nil when unsampled
}

func (e *Evaluator) getApplyScratch(chunks, mPad int) *applyScratch {
	sc, ok := e.applyPool.Get().(*applyScratch)
	if !ok {
		sc = &applyScratch{}
	}
	r := e.P.R
	full := r.Levels()
	// vNTT's length doubles as the chunk count downstream, so reslice to
	// exactly chunks, reusing buffers parked in the spare capacity.
	if cap(sc.vNTT) > len(sc.vNTT) {
		sc.vNTT = sc.vNTT[:cap(sc.vNTT)]
	}
	for len(sc.vNTT) < chunks {
		sc.vNTT = append(sc.vNTT, &rlwe.Ciphertext{B: r.NewPoly(full), A: r.NewPoly(full)})
	}
	for i := range sc.vNTT {
		if sc.vNTT[i] == nil {
			sc.vNTT[i] = &rlwe.Ciphertext{B: r.NewPoly(full), A: r.NewPoly(full)}
		}
	}
	sc.vNTT = sc.vNTT[:chunks]
	for len(sc.tree) < mPad {
		sc.tree = append(sc.tree, lwe.NewPackNode(e.P))
	}
	return sc
}

func (e *Evaluator) putApplyScratch(sc *applyScratch) {
	// Detach any trace sink before pooling — the next caller must not
	// attribute its stages to this request's trace.
	sc.sink = nil
	sc.clk.Attach(nil)
	e.applyPool.Put(sc)
}

// ensureInvN caches N^{-1} per limb (with Shoup companions), the constant
// the fused B-extraction multiplies its limb sums by.
func (e *Evaluator) ensureInvN() {
	e.invOnce.Do(func() {
		r := e.P.R
		full := r.Levels()
		e.invN = make([]uint64, full)
		e.invNShoup = make([]uint64, full)
		for l := 0; l < full; l++ {
			m := r.Moduli[l]
			inv := m.Inv(m.Reduce(uint64(r.N)))
			e.invN[l] = inv
			e.invNShoup[l] = m.ShoupPrecomp(inv)
		}
	})
}

// effWorkers resolves the Workers knob against the available work items.
func (e *Evaluator) effWorkers(items int) int {
	w := e.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// loadVector copies the vector ciphertexts into scratch and forward-
// transforms them once — the pipeline's shared stage-1 work.
func (e *Evaluator) loadVector(sc *applyScratch, ctV []*rlwe.Ciphertext) error {
	r := e.P.R
	sc.clk.Start()
	for c, ct := range ctV {
		if ct == nil || ct.B == nil || ct.A == nil {
			return fmt.Errorf("%w: vector ciphertext %d is nil", ErrVectorLength, c)
		}
		if ct.Levels() != r.Levels() {
			return fmt.Errorf("%w: vector ciphertext %d", ErrVectorBasis, c)
		}
		v := sc.vNTT[c]
		v.CopyFrom(ct)
		sc.clk.Skip() // the copy is not a pipeline stage
		if !v.B.IsNTT {
			r.NTT(v.B)
		}
		if !v.A.IsNTT {
			r.NTT(v.A)
		}
		sc.clk.Mark(obs.StageNTT)
	}
	sc.clk.Flush()
	return nil
}

// rowApplyInto runs stages 1–4 for one matrix row against the transformed
// vector chunks and writes the extracted slot ciphertext into dst as an
// NTT-resident tree leaf. Both leaf parts stay UN-rescaled: dst.A is the
// raw full-basis NTT dot-product accumulator itself (the a-part MAC
// writes straight into it — the tree's deferred a accumulator makes the
// per-row RESCALE disappear), and dst.BT holds the un-rescaled per-limb B
// constant in every slot (the NTT image of a constant). Both divisions
// are deferred to the tree flush. Rows come either prepared (polys/shoup
// non-nil) or raw (row/scale), in which case the encode+lift+NTT happens
// on the fly in rs.
func (e *Evaluator) rowApplyInto(dst *lwe.PackNode, vNTT []*rlwe.Ciphertext, polys []*ring.Poly, shoup [][][]uint64, row []uint64, scale uint64, rs *rowScratch) {
	p := e.P
	r := p.R
	full := r.Levels()
	accB := rs.accB
	accB.IsNTT, dst.A.IsNTT = true, true
	rs.clk.Start()
	for c := 0; c < len(vNTT); c++ {
		pt := rs.lift
		var sh [][]uint64
		if polys != nil {
			pt, sh = polys[c], shoup[c]
		} else {
			lo, hi := c*r.N, (c+1)*r.N
			if hi > len(row) {
				hi = len(row)
			}
			p.EncodeRowInto(rs.pt, row[lo:hi], scale)
			rs.clk.Mark(obs.StageEncode)
			p.LiftInto(pt, rs.pt)
			rs.clk.Mark(obs.StageLift)
			r.NTT(pt)
			rs.clk.Mark(obs.StageNTT)
		}
		switch {
		case c == 0 && sh != nil:
			r.MulCoeffShoupDual(accB, dst.A, vNTT[c].B, vNTT[c].A, pt, sh)
		case c == 0:
			r.MulCoeff(accB, vNTT[c].B, pt)
			r.MulCoeff(dst.A, vNTT[c].A, pt)
		case sh != nil:
			r.MulCoeffShoupDualAdd(accB, dst.A, vNTT[c].B, vNTT[c].A, pt, sh)
		default:
			r.MulCoeffAdd(accB, vNTT[c].B, pt)
			r.MulCoeffAdd(dst.A, vNTT[c].A, pt)
		}
		rs.clk.Mark(obs.StageRowMul)
	}
	// B: EXTRACT at index 0 keeps only the constant coefficient of the
	// inverse transform, which is N^{-1}·Σ_j â_j per limb (SumRow). Its
	// scalar RESCALE is DEFERRED to the tree flush: the leaf's BT carries
	// the un-rescaled constant β per full-basis limb, whose NTT image is β
	// in every slot.
	for l := 0; l < full; l++ {
		beta := r.Moduli[l].MulShoup(r.SumRow(accB, l), e.invN[l], e.invNShoup[l])
		rb := dst.BT.Coeffs[l]
		for i := range rb {
			rb[i] = beta
		}
	}
	dst.BT.IsNTT = true
	rs.clk.Mark(obs.StageExtract)
	rs.clk.Flush()
}

// tileApply runs stages 1–9 for one row tile into out (normal basis): the
// per-row dot products fan out across the worker pool, padding rows are
// zeroed, and the packing tree folds the scratch buffers down to one
// ciphertext. Rows come either from the prepared tile or from raw+scale.
func (e *Evaluator) tileApply(out *rlwe.Ciphertext, sc *applyScratch, tile *preparedTile, raw [][]uint64, scale uint64, rows, mPad int) error {
	workers := e.effWorkers(rows)
	if workers > 1 {
		e.tileRowsParallel(sc, tile, raw, scale, rows, workers)
	} else {
		rs := e.getRowScratch()
		rs.clk.Attach(sc.sink)
		for i := 0; i < rows; i++ {
			e.tileRow(sc, tile, raw, scale, i, rs)
		}
		e.putRowScratch(rs)
	}
	for i := rows; i < mPad; i++ {
		sc.tree[i].Zero()
	}
	root, err := lwe.PackResidentSink(e.P, sc.tree[:mPad], e.Keys, workers, sc.sink)
	if err != nil {
		return err
	}
	lwe.FlushIntoSink(e.P, out, root, sc.sink)
	return nil
}

// tileRow computes one row's dot product into its tree slot, from either
// the prepared tile or the raw matrix row.
func (e *Evaluator) tileRow(sc *applyScratch, tile *preparedTile, raw [][]uint64, scale uint64, i int, rs *rowScratch) {
	if tile != nil {
		e.rowApplyInto(sc.tree[i], sc.vNTT, tile.rowNTT[i], tile.rowShoup[i], nil, 0, rs)
	} else {
		e.rowApplyInto(sc.tree[i], sc.vNTT, nil, nil, raw[i], scale, rs)
	}
}

// tileRowsParallel fans the tile's rows across workers goroutines, each
// with its own pooled row scratch. Kept out of tileApply so the goroutine
// closure doesn't heap-allocate captures on the serial path.
func (e *Evaluator) tileRowsParallel(sc *applyScratch, tile *preparedTile, raw [][]uint64, scale uint64, rows, workers int) {
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			rs := e.getRowScratch()
			defer e.putRowScratch(rs)
			rs.clk.Attach(sc.sink)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= rows {
					return
				}
				e.tileRow(sc, tile, raw, scale, i, rs)
			}
		}()
	}
	wg.Wait()
}

// log2 of a power of two.
func log2(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}
