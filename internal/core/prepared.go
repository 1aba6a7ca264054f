package core

// Prepared-matrix HMVP: the per-matrix half of the pipeline (row encode,
// centred lift, forward NTT) is hoisted out of the per-vector path,
// mirroring how CHAM keeps operands resident instead of re-streaming them.
// A prepared row is its transformed values and nothing else: within one
// apply the vector chunk is the operand every row multiplies, and the row
// MAC is a Montgomery product against the chunk, which each apply puts in
// Montgomery form once, so neither side carries a Shoup table. The chunks
// arrive already transformed (EncryptVector), so loading one is a single
// pass, and the row MAC is one sweep per pair, limb and half row over
// every chunk: each word of P±, â and b̂ read once, the products summed
// wide and each output reduced and written once. A
// PreparedMatrix is built once with Prepare and then applied to any number
// of encrypted vectors; ApplyInto reuses pooled scratch end to end, so a
// warm apply performs zero heap allocations.
//
// Per row, the dot product fuses stage 4's EXTRACTLWES into the inverse
// transform: extraction at index 0 only needs the constant coefficient of
// INTT(row∘b̂), which is N^{-1}·Σ_j row_j·b̂_j per limb, so the B part is a
// dot product summed inside the row MAC's sweep; it skips its full inverse
// transforms and polynomial RESCALE entirely, and no product row is
// written.
//
// Rows are not computed ahead of the tree, and the tree's first level is
// not computed from rows: the group-size-1 merge of rows r and r+m/2 is
// linear in them up to its key switch, so Prepare stores each such pair
// already split, P± = R_r ± X^{N/2}·R_{r+m/2}, and an apply computes the
// merged node's parts straight from P± with the row MAC — no leaf, no
// split, no BT gather. A tile is one lwe.Fold over its m/2 pairs (a
// one-row tile's one pair is its row, applied without the merge's
// doubling: the tree's only leaf). The fold asks for them in bit-reversed
// order (0, m/4, m/8, 3m/8, …), the order in which a depth-first walk of
// Alg. 3 completes sibling subtrees, the pair's MACs land straight in the
// reduce-buffer slot the fold hands it, and the node merges as soon as
// its sibling exists. The buffer is
// log₂(pairs in the subtree)+1 resident nodes per worker — 8 × 192 KB at
// the 256-row design point instead of 256 leaves (48 MB) — the software
// form of CHAM's pre-empting reduce buffer (exp.Config.ReduceBufferSlots).
// With Workers > 1 the fold splits recursively, even half on ⌊w/2⌋
// workers and odd half on ⌈w/2⌉, each worker with its own slots and
// merge scratch, and the two roots merge once per split.

import (
	"fmt"
	"runtime"
	"time"

	"cham/internal/lwe"
	"cham/internal/mod"
	"cham/internal/obs"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

// preparedTile holds one row tile in evaluation-ready form: every row chunk
// encoded, lifted to the full basis and forward-transformed, with the
// tile's packing scale 2^-ℓ already folded in, and the rows combined into
// the sibling pairs of the packing tree's first level — rows·chunks·limbs·N
// words in one slab, values only.
type preparedTile struct {
	rows, mPad int
	pairs      []rowPair // max(mPad/2, 1) pairs; pair r holds rows r and r+mPad/2
}

// rowPair is one first-level sibling pair of a tile, per row chunk: rows r
// and r+mPad/2 as P± = R_r ± X^{N/2}·R_{r+mPad/2}, NTT domain, full basis
// — the monomial split of the tree's group-size-1 merge, which is linear
// in the rows and so is done once here instead of per apply. When the odd
// row is padding the pair is half-empty: minus is nil and plus is R_r,
// which is P+ and P− both. A one-row tile has one such pair, its row.
// Each side's chunks lie back to back in the tile's slab, and plusRun and
// minusRun are those words, the form the row MAC streams
// (ring.MulCoeffMontDotPair).
type rowPair struct {
	plus, minus       []*ring.Poly // [chunk]
	plusRun, minusRun []uint64     // the chunks' limbs, chunk by chunk
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

// tile places tile ti of the product.
func (pm *PreparedMatrix) tile(ti int) TileLayout { return tileLayout(pm.m, pm.ev.P.R.N, ti) }

// Prepare encodes, lifts, and forward-transforms all rows of A once, and
// splits each tile's first-level row pairs (the one-time stages 1–2 work
// of every future apply, and the per-matrix part of the packing tree's
// first level). A must be
// non-empty and rectangular, and every row tile must fit the packing
// keys.
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
	// Validate the largest tile before the expensive transforms start,
	// whether or not it is being prepared now: key coverage is a property
	// of the matrix, not of the subset a later PrepareTile might extend.
	if mPad := MaxTilePad(m, n); mPad > e.Keys.M {
		return nil, fmt.Errorf("%w: tile of %d rows (keys cover %d)", ErrTileTooLarge, mPad, e.Keys.M)
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
	clk.Skip()
	for _, ti := range sel {
		if pm.tiles[ti] == nil {
			pm.tiles[ti] = e.buildTile(pm, A, ti, &clk)
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
	t := pm.tile(ti)
	for i := t.Base; i < t.Base+t.Rows; i++ {
		if len(A[i]) != pm.cols {
			return countErr(fmt.Errorf("%w: row %d has %d columns, want %d", ErrRaggedMatrix, i, len(A[i]), pm.cols))
		}
	}
	sp := obs.StartSpan(mPrepareSec)
	var clk obs.StageClock
	clk.Skip()
	pm.tiles[ti] = e.buildTile(pm, A, ti, &clk)
	clk.Flush()
	sp.End()
	return nil
}

// buildTile runs stages 1–2 for one row tile, one pass per row chunk: the
// row is checked and encoded straight into its slab's first limb
// (bfv.EncodeRowInto, charged to encode), then spread over the basis by
// the transforms that centre-lift it as they load it (ring.NTTLift from t,
// charged to ntt: every other limb, then the first in place); no
// plaintext scratch and no lifted row sits in between. A full pair's odd
// row follows its even row chunk by chunk, and the pair's monomial split
// runs in place while both are in L2 (ring.MonomialSplitNTT, charged to
// pack, the stage it takes off every apply): P+ over the even row, P−
// over the odd. Every long-lived buffer is carved from one coefficient
// slab and flat header arrays instead of row×chunk×limb individual
// allocations — cold Prepare used to cost thousands of allocs per call.
func (e *Evaluator) buildTile(pm *PreparedMatrix, A [][]uint64, ti int, clk *obs.StageClock) *preparedTile {
	p := e.P
	n := p.R.N
	full := p.R.Levels()
	chunks, cols := pm.chunks, pm.cols
	tl := pm.tile(ti)
	base, rows, mPad := tl.Base, tl.Rows, tl.Pad
	scale := p.InvPow2(log2(mPad))
	half := mPad / 2
	t := &preparedTile{rows: rows, mPad: mPad, pairs: make([]rowPair, max(half, 1))}
	nPolys := rows * chunks
	polys := make([]ring.Poly, nPolys)
	polyPtrs := make([]*ring.Poly, nPolys)
	limbHdrs := make([][]uint64, nPolys*full)
	words := make([]uint64, nPolys*full*n)
	slab := words
	for k := range polys {
		pc := limbHdrs[:full:full]
		limbHdrs = limbHdrs[full:]
		for l := range pc {
			pc[l], slab = slab[:n:n], slab[n:]
		}
		polys[k].Coeffs = pc
		polyPtrs[k] = &polys[k]
	}
	run := chunks * full * n
	next := func() ([]*ring.Poly, []uint64) {
		rp, w := polyPtrs[:chunks:chunks], words[:run:run]
		polyPtrs, words = polyPtrs[chunks:], words[run:]
		return rp, w
	}
	// rowInto encodes chunk c of tile row i into pt and transforms it.
	rowInto := func(pt *ring.Poly, i, c int) {
		lo, hi := c*n, min((c+1)*n, cols)
		p.EncodeRowInto(pt.Coeffs[0], A[base+i][lo:hi], scale)
		clk.Mark(obs.StageEncode)
		p.R.NTTLift(pt, pt.Coeffs[0], p.T.Q)
		clk.Mark(obs.StageNTT)
	}
	for i := range t.pairs {
		pr := &t.pairs[i]
		pr.plus, pr.plusRun = next()
		if half > 0 && i+half < rows {
			pr.minus, pr.minusRun = next()
		}
		for c, pt := range pr.plus {
			rowInto(pt, i, c)
			if pr.minus != nil {
				rowInto(pr.minus[c], i+half, c)
				p.R.MonomialSplitNTT(pt, pr.minus[c], pt, pr.minus[c], n/2)
				clk.Mark(obs.StagePack)
			}
		}
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
	t0 := time.Now()
	rows, err := pm.validate(res, tiles, vecs)
	if err != nil {
		return countErr(err)
	}
	e := pm.ev
	e.ensureInvN()
	sc := e.getApplyScratch(pm.chunks)
	defer e.putApplyScratch(sc)
	sc.sink = sink
	sc.clk.Attach(sink)
	defer sc.clk.Flush() // every vector's transforms: one observation per apply
	for k, ctV := range vecs {
		e.loadVector(sc, ctV)
		for j, out := range res[k].Packed {
			ti := j
			if tiles != nil {
				ti = tiles[j]
			}
			if err := e.tileApply(out, sc, pm.tiles[ti]); err != nil {
				return countErr(err)
			}
		}
		res[k].M, res[k].N = pm.m, e.P.R.N
	}
	mApplySec.Observe(time.Since(t0).Seconds())
	mApplies.Add(uint64(len(vecs)))
	mRows.Add(uint64(rows * len(vecs)))
	return nil
}

// CheckVector checks one encrypted vector against the prepared shape
// (CheckVectorShape). Every apply runs it on each vector, and a server
// runs it at admission, before it prepares any tile the request names.
func (pm *PreparedMatrix) CheckVector(ctV []*rlwe.Ciphertext) error {
	return CheckVectorShape(pm.ev.P, pm.chunks, ctV)
}

// validate checks a whole apply against the prepared shape — every
// vector (CheckVector), every listed tile's index and preparation, every
// output's slot count and polynomial shapes — and
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
		if err := pm.CheckVector(ctV); err != nil {
			return 0, fmt.Errorf("vector %d: %w", k, err)
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
			if !hasShape(ct.B, p.NormalLevels, p.R.N) || !hasShape(ct.A, p.NormalLevels, p.R.N) {
				return 0, fmt.Errorf("%w: result %d tile slot %d has the wrong shape; allocate with NewResult", ErrResultShape, k, j)
			}
		}
	}
	return rows, nil
}

// hasShape reports whether x has exactly levels limbs of n words each.
func hasShape(x *ring.Poly, levels, n int) bool {
	if x.Levels() != levels {
		return false
	}
	for _, row := range x.Coeffs {
		if len(row) != n {
			return false
		}
	}
	return true
}

// --- per-vector machinery ---

// applyScratch holds the per-call buffers shared across rows: the vector
// chunks in the form the row MAC reads, the packing tree's reduce buffer
// and the pair source that feeds it.
type applyScratch struct {
	chunks []*rlwe.Ciphertext // full basis, NTT domain, A in Montgomery form
	b, a   []uint64           // the chunks' B and A halves back to back: their runs
	fold   lwe.Fold           // log₂(subtree's pairs)+1 resident slots per worker
	pairs  tilePairs
	clk    obs.StageClock // times the shared vector sweeps; flushed once per apply
	sink   obs.StageSink  // traced request's recorder; nil when unsampled
}

func (e *Evaluator) getApplyScratch(chunks int) *applyScratch {
	sc, ok := e.applyPool.Get().(*applyScratch)
	if !ok {
		sc = &applyScratch{}
	}
	r := e.P.R
	full := r.Levels()
	// The chunk list's length doubles as the chunk count downstream, so
	// reslice to exactly chunks when the runs already hold that many;
	// otherwise cut every chunk afresh from two new runs.
	words := full * r.N
	if cap(sc.chunks) < chunks {
		sc.b, sc.a = make([]uint64, chunks*words), make([]uint64, chunks*words)
		sc.chunks = make([]*rlwe.Ciphertext, chunks)
		for c := range sc.chunks {
			sc.chunks[c] = &rlwe.Ciphertext{B: polyAt(sc.b[c*words:], full, r.N), A: polyAt(sc.a[c*words:], full, r.N)}
		}
	}
	sc.chunks = sc.chunks[:chunks]
	return sc
}

// polyAt returns a polynomial of levels limbs of n words over the front of
// words.
func polyAt(words []uint64, levels, n int) *ring.Poly {
	p := &ring.Poly{Coeffs: make([][]uint64, levels)}
	for l := range p.Coeffs {
		p.Coeffs[l] = words[l*n : (l+1)*n : (l+1)*n]
	}
	return p
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

// loadVector puts each vector chunk into scratch in the form every row's
// MAC reads: B as it is, A in Montgomery form (·2^52, see
// ring.MulCoeffMontDotPair), both NTT domain. A chunk that arrives
// transformed, as EncryptVector makes it, takes one pass: a copy of B and
// MulScalar from the wire's A straight into scratch, charged to row_mul,
// the stage it serves. One in coefficient domain is copied and
// forward-transformed first — the pipeline's stage-1 work, charged to ntt.
// Both on the apply's clock. validate has checked every ciphertext's
// shape.
func (e *Evaluator) loadVector(sc *applyScratch, ctV []*rlwe.Ciphertext) {
	r := e.P.R
	for c, ct := range ctV {
		v := sc.chunks[c]
		v.B.CopyFrom(ct.B)
		if !v.B.IsNTT {
			sc.clk.Skip() // the copy is not a pipeline stage
			r.NTT(v.B)
			sc.clk.Mark(obs.StageNTT)
		}
		a := ct.A
		if !a.IsNTT {
			sc.clk.Skip()
			v.A.CopyFrom(a)
			r.NTT(v.A)
			sc.clk.Mark(obs.StageNTT)
			a = v.A
		}
		r.MulScalar(v.A, a, 1<<52)
		sc.clk.Mark(obs.StageRowMul)
	}
}

// pairApplyInto runs stages 1–4 for tile pair i and the front half of
// the packing tree's group-size-1 merge of its two rows, E = R_r·v and
// O = R_{r+mPad/2}·v, without either leaf. The row MAC is
// vector-stationary: the prepared P+ and P− are the streamed operands, and
// each chunk is the fixed one, against the Montgomery form loadVector left
// â in; one sweep per limb and half row (ring.MulCoeffMontDotPair) reads
// every chunk of P+, P−, b̂ and â once and writes each output once. A =
// Σ P+∘â = E.A + X^{N/2}·O.A goes straight into dst.A, D = Σ P−∘â = E.A −
// X^{N/2}·O.A into scratch, which is returned (a half-empty pair has P− =
// P+, so D is dst.A and the sweep runs on P+ alone).
// Both parts stay UN-rescaled — the tree's deferred accumulators make the
// per-row RESCALE disappear, and both divisions run at the tree flush.
// dst.BT is written from the B dot products alone: EXTRACT at index 0
// keeps only the constant coefficient of the inverse transform, N^{-1}
// times the dot product per limb, whose NTT image is that constant in
// every slot. Slot j of NTT(X^{N/2}) is w on [0, N/2) and −w on [N/2, N),
// and φ_3 maps each half of the slots onto the other, so with β_E and β_O
// the leaves' constants the merge's E.BT + X^{N/2}·O.BT + φ_3(E.BT −
// X^{N/2}·O.BT) is 2(β_E + w·β_O) on the first half and 2(β_E − w·β_O) on
// the second — by the same sums, N^{-1}·(S+_lo + S−_hi) and
// N^{-1}·(S+_hi + S−_lo) doubled, S±_h being P±'s dot product with b̂
// over half h. The residues are the ones the split and gathers of two
// leaves give, so the merge is bit-identical. A one-row tile's pair is its
// row and there is no merge: dst is the row's leaf, N^{-1}·(S_lo + S_hi)
// undoubled in every slot. clk is charged with row_mul for the MACs and
// extract for BT.
func (e *Evaluator) pairApplyInto(dst *lwe.PackNode, scratch *ring.Poly, sc *applyScratch, tile *preparedTile, i int, clk *obs.StageClock) *ring.Poly {
	r := e.P.R
	pr := &tile.pairs[i]
	var buf [2][4][2][2]uint64
	plus, minus, d := dotTotals(&buf[0], r.Levels()), dotTotals(&buf[1], r.Levels()), scratch
	if pr.minus == nil {
		minus, d, scratch = plus, dst.A, nil
	}
	r.MulCoeffMontDotPair(plus, minus, dst.A, scratch, pr.plusRun, pr.minusRun, sc.b, sc.a, len(sc.chunks))
	clk.Mark(obs.StageRowMul)
	h := r.N / 2
	for l := range plus {
		m := r.Moduli[l]
		rb := dst.BT.Coeffs[l]
		lo := m.MulShoup(sumDots(m, plus[l][0], minus[l][1]), e.invN[l], e.invNShoup[l])
		hi := m.MulShoup(sumDots(m, plus[l][1], minus[l][0]), e.invN[l], e.invNShoup[l])
		if tile.mPad > 1 {
			lo, hi = m.Add(lo, lo), m.Add(hi, hi)
		}
		fill(rb[:h], lo)
		fill(rb[h:], hi)
	}
	dst.BT.IsNTT = true
	clk.Mark(obs.StageExtract)
	return d
}

// dotTotals returns room for full limbs' totals: buf, on the caller's
// stack, when the basis fits.
func dotTotals(buf *[4][2][2]uint64, full int) [][2][2]uint64 {
	if full <= len(buf) {
		return buf[:full]
	}
	return make([][2][2]uint64, full)
}

// sumDots reduces two 128-bit dot-product totals and adds them mod q.
func sumDots(m mod.Modulus, x, y [2]uint64) uint64 {
	return m.Add(m.BarrettReduce128(x[0], x[1]), m.BarrettReduce128(y[0], y[1]))
}

// fill sets every word of row to v by doubling copies: a memmove, not a
// word loop.
func fill(row []uint64, v uint64) {
	row[0] = v
	for k := 1; k < len(row); k *= 2 {
		copy(row[k:], row[:k])
	}
}

// tileApply runs stages 1–9 for one row tile into out (normal basis): the
// packing fold asks for each row pair as its sibling subtree completes,
// the source computes the pair's first-level node straight into the
// fold's slot, and the root is flushed.
func (e *Evaluator) tileApply(out *rlwe.Ciphertext, sc *applyScratch, tile *preparedTile) error {
	workers := e.effWorkers(tile.rows)
	src := &sc.pairs
	src.e, src.sc, src.tile = e, sc, tile
	root, err := sc.fold.Run(e.P, tile.mPad, src, e.Keys, workers, sc.sink)
	src.tile = nil
	if err != nil {
		return err
	}
	lwe.FlushIntoSink(e.P, out, root, sc.sink)
	return nil
}

// tilePairs is the packing fold's source for one tile: the tree's first
// level from the tile's row pairs.
type tilePairs struct {
	e    *Evaluator
	sc   *applyScratch
	tile *preparedTile
}

func (s *tilePairs) Pair(nd, scratch *lwe.PackNode, i int, clk *obs.StageClock) *ring.Poly {
	return s.e.pairApplyInto(nd, scratch.A, s.sc, s.tile, i, clk)
}

// log2 of a power of two.
func log2(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}
