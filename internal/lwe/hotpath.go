package lwe

// NTT-resident, allocation-free packing tree (DESIGN.md §12), folded
// post-order as the leaves arrive — the software form of CHAM's
// PACKTWOLWES module, whose reduce buffer merges a row's LWE as soon as
// its sibling exists (exp.Config.ReduceBufferSlots models it).
//
// The recursion of Alg. 3 splits the leaves ≡ r mod c into the even
// group (≡ r mod 2c) and the odd one (≡ r+c mod 2c) and merges the two
// with group size i = m/2c. Walking that recursion depth-first, even
// half first, asks for the leaves in bit-reversed order (0, m/2, m/4,
// 3m/4, …), and every merge sees the same E, O, key and i as the
// level-order walk of ref.PackDeferred — so the fold is bit-identical to
// it by construction. Every fold starts from the tree's first level: the
// merge at group size 1 of leaves idx and idx+m/2 is asked of the fold's
// source (Pairs) up to its key switch — core's prepared tiles compute it
// from Prepare-time row pairs, PackLWEs and PackResident from their two
// leaves with the front half every merge shares — and the fold runs its
// tail. So the walk's units are the m/2 pairs, in the same bit-reversed
// order, and its merges start at group size 2. A worker keeps the roots
// of its finished subtrees on a stack: a pair is pushed, and while the
// two on top are siblings they merge into the lower one. A subtree of 2^L
// pairs never holds more than L+1 nodes, so the reduce buffer is
// log₂(m/2)+1 slots — 8 × 192 KB at the 256-row design point — not m
// resident leaves. A tree of one leaf is asked for the leaf and merges
// nothing. With w workers the fold splits recursively: a subtree runs its
// even half on ⌊w/2⌋ workers and its odd half on ⌈w/2⌉, then merges the
// two roots once; each worker folds its disjoint subtree with its own
// slots and merge scratch.
//
// Tree state never leaves the NTT domain. A node carries
//
//	(BT, A)  with true ciphertext  (ModDown(BT), ModDown(A)),
//
// BOTH parts full-basis NTT accumulators whose division by the special
// modulus is DEFERRED: leaves enter as exact multiples P·ct (or, on the
// core fast path, pairs as un-rescaled row accumulators), every merge adds
// its key-switch contributions to both parts un-rescaled, and the
// rounding divisions run once per tree at FlushInto. Monomials are
// pointwise multiplies, automorphisms are cached slot gathers, and the
// only per-merge rescale is of the gathered difference a-part feeding the
// digit decomposition — the one place the tree is nonlinear in a. Keeping
// the a accumulator deferred is what lets core's rows skip their per-row
// RESCALE entirely: the raw full-basis dot-product accumulator IS the
// pair's a-part.

import (
	"fmt"
	"math/bits"
	"sync"

	"cham/internal/bfv"
	"cham/internal/obs"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

// Stage telemetry: each tree merge splits into PACKTWOLWES arithmetic
// (pack: monomial multiplies, sums/differences, automorphism gathers),
// the RESCALE of the gathered a-part feeding the switch (moddown), the
// hoisted digit decomposition of the automorphism key switch (decompose),
// and the key-dependent digit·key accumulation (key_switch). FlushInto's
// tree-exit transforms and the deferred divisions of both parts report
// under intt and moddown. A fold times its merges on one obs.StageClock
// per worker — the clock it hands its source too, so core's rows and the
// merges between them publish once per fold.
var mergesCnt = obs.GetCounter("cham_hmvp_pack_merges_total",
	"PACKTWOLWES tree merges (m-1 per packed tile).")

// PackNode is one NTT-resident packing-tree operand: both parts are
// full-basis NTT accumulators with their special-modulus division
// deferred — the ciphertext it stands for is (ModDown(BT), ModDown(A)).
// Allocate with NewPackNode, fill with ResidentFromRLWE (or directly, as
// core's pair apply does), fold with a Fold (or PackResident over pre-filled
// nodes), and leave residency with FlushInto.
type PackNode struct {
	BT *ring.Poly // full basis, NTT domain; true b = ModDown(BT)
	A  *ring.Poly // full basis, NTT domain; true a = ModDown(A)
}

// NewPackNode allocates an (uninitialized) resident tree node.
func NewPackNode(p bfv.Params) *PackNode {
	return &PackNode{BT: p.R.NewPoly(p.R.Levels()), A: p.R.NewPoly(p.R.Levels())}
}

// ResidentFromRLWE loads a normal-basis coefficient-domain slot ciphertext
// into resident form: nd.BT = NTT(P·ct.B) and nd.A = NTT(P·ct.A) over the
// full basis — EXACT multiples of the special modulus product P, so
// ModDown(BT) = ct.B and ModDown(A) = ct.A with zero rounding error and
// the deferred tree is bit-identical to the eager one for a single merge.
// (P·x vanishes modulo every special limb, so those rows are zero.)
func ResidentFromRLWE(p bfv.Params, nd *PackNode, ct *rlwe.Ciphertext) {
	if ct.IsNTT() {
		panic("lwe: ResidentFromRLWE requires coefficient domain")
	}
	r := p.R
	n := r.N
	full := r.Levels()
	nl := p.NormalLevels
	for l := 0; l < nl; l++ {
		m := r.Moduli[l]
		pl := uint64(1)
		for sp := nl; sp < full; sp++ {
			pl = m.Mul(pl, m.Reduce(r.Moduli[sp].Q))
		}
		pp := m.ShoupPrecomp(pl)
		srcB, dstB := ct.B.Coeffs[l][:n], nd.BT.Coeffs[l][:n]
		for i, v := range srcB {
			dstB[i] = m.MulShoup(v, pl, pp)
		}
		r.Tables[l].ForwardLazy(dstB)
		srcA, dstA := ct.A.Coeffs[l][:n], nd.A.Coeffs[l][:n]
		for i, v := range srcA {
			dstA[i] = m.MulShoup(v, pl, pp)
		}
		r.Tables[l].ForwardLazy(dstA)
	}
	for sp := nl; sp < full; sp++ {
		rowB, rowA := nd.BT.Coeffs[sp][:n], nd.A.Coeffs[sp][:n]
		for i := range rowB {
			rowB[i] = 0
			rowA[i] = 0
		}
	}
	nd.BT.IsNTT = true
	nd.A.IsNTT = true
}

// mergeScratch is the per-worker arena of one pack-tree sweep: the hoisted
// decomposition digits, the full-basis node a merge's front half writes
// its differences to (and a first-level source may load a leaf into), and
// the rescaled a-part. One scratch serves every merge a fold worker runs,
// keeping the buffers cache-resident instead of cycling the pool per
// merge.
type mergeScratch struct {
	dec *rlwe.Decomposition
	d   PackNode   // full basis: E − X^z·O, both parts
	aN  *ring.Poly // normal basis, coefficient domain: rescaled gathered a
}

// msShells recycles mergeScratch headers; the buffers they carry come from
// the ring and decomposition pools. Shells are ring-agnostic (four
// pointers), so one process-wide pool is safe.
var msShells sync.Pool

// getMergeScratch borrows a merge arena from the pools.
func getMergeScratch(p bfv.Params) *mergeScratch {
	ms, ok := msShells.Get().(*mergeScratch)
	if !ok {
		ms = &mergeScratch{}
	}
	full := p.R.Levels()
	ms.dec = p.GetDecomposition()
	ms.d.BT = p.R.GetPoly(full)
	ms.d.A = p.R.GetPoly(full)
	ms.aN = p.R.GetPoly(p.NormalLevels)
	return ms
}

// putMergeScratch returns a merge arena to the pools. The caller must not
// use ms afterwards.
func putMergeScratch(p bfv.Params, ms *mergeScratch) {
	p.PutDecomposition(ms.dec)
	p.R.PutPoly(ms.d.BT)
	p.R.PutPoly(ms.d.A)
	p.R.PutPoly(ms.aN)
	ms.dec, ms.d, ms.aN = nil, PackNode{}, nil
	msShells.Put(ms)
}

// packTwo merges two resident groups of size i ≥ 2 (PACKTWOLWES, Alg. 2)
// without leaving the NTT domain:
//
//	out = (E + X^{N/2i}·O) + φ_{2i+1}(E - X^{N/2i}·O),
//
// with the automorphism realised as a slot gather, its key switch
// accumulated digit-resident, and BOTH key-switch contributions deferred
// into the full-basis accumulators un-rescaled. The only rescale is of
// the gathered difference a-part feeding the digit decomposition — the
// one place the merge is nonlinear in a. E and O are consumed
// (overwritten as scratch); out may alias E but not O. clk, the fold
// worker's running clock, is charged with the four stages. The merges at
// group size 1 are the fold's first level, which its source builds.
func packTwo(p bfv.Params, out *PackNode, i int, E, O *PackNode, swk *rlwe.SwitchingKey, ms *mergeScratch, clk *obs.StageClock) {
	k := 2*i + 1
	// The a gather materializes into O's free buffer — the operand the
	// rescale inverts next.
	p.R.AutomorphNTT(O.A, mergeFront(p.R, out, E, O, &ms.d, p.R.N/(2*i), k), k)
	clk.Mark(obs.StagePack)
	mergeTail(p, out, O.A, swk, ms, clk)
}

// mergeFront is the front half every merge of two leaves or groups shares
// (packTwo's, and lwe's own sources' at the first level): out.A = E.A +
// X^z·O.A and out.BT = E.BT + X^z·O.BT + φ_k(E.BT − X^z·O.BT). Each split
// computes sum and difference in one sweep without materializing X^z·O,
// the difference landing in d before the sum can clobber E, which out may
// alias; the b gather then accumulates straight into the sum. It returns
// the difference a-part E.A − X^z·O.A, in d.A, for the caller to gather
// into the merge's tail. d may alias O (a source loads O straight into
// it), out must not; E and O are consumed.
func mergeFront(r *ring.Ring, out, E, O, d *PackNode, z, k int) *ring.Poly {
	r.MonomialSplitNTT(out.BT, d.BT, E.BT, O.BT, z)
	r.AutomorphNTTAddInto(out.BT, d.BT, k)
	r.MonomialSplitNTT(out.A, d.A, E.A, O.A, z)
	return d.A
}

// mergeTail is the tail every merge shares, whichever way its front half
// came about (packTwo's, or a Pairs source's at the first level): g, the
// gathered difference a-part φ_k(E.A − X^z·O.A), is switched from φ_k(s)
// back to s, and both switched parts join out's accumulators. g is
// consumed. clk is charged with the three stages.
func mergeTail(p bfv.Params, out *PackNode, g *ring.Poly, swk *rlwe.SwitchingKey, ms *mergeScratch, clk *obs.StageClock) {
	// φ_k(diff) decrypts under φ_k(s); the switch brings its TRUE a-part
	// ModDown(g) back under s. The rescale rides the inverse transforms
	// into coefficient form — the view the digit lifts read anyway, so they
	// replace (not add to) the decomposition's.
	p.R.INTTModDownTo(ms.aN, g)
	clk.Mark(obs.StagePackModDown)
	// Decomposition commutes with φ_k, so the digits are built straight
	// from the gathered, rescaled a-part.
	p.DecomposeInto(ms.dec, ms.aN)
	clk.Mark(obs.StageDecompose)
	// Both switched parts join their accumulators un-rescaled: the deferred
	// divisions run once per tree, at FlushInto.
	p.KeySwitchAccumulateNTT(out.BT, out.A, ms.dec, swk)
	clk.Mark(obs.StageKeySwitch)
}

// FlushInto leaves residency: out.B = ModDown(INTT(nd.BT)) and out.A =
// ModDown(INTT(nd.A)) — the whole tree's deferred divisions, once per
// part. out must be a normal-basis ciphertext; nd is consumed.
//
// The benchmark pins the sink-less FlushInto signature, so the
// FlushInto/FlushIntoSink pair stays until a benchmark issue re-points it.
func FlushInto(p bfv.Params, out *rlwe.Ciphertext, nd *PackNode) {
	FlushIntoSink(p, out, nd, nil)
}

// FlushIntoSink is FlushInto with per-stage durations also routed to sink;
// nil sink is exactly FlushInto.
func FlushIntoSink(p bfv.Params, out *rlwe.Ciphertext, nd *PackNode, sink obs.StageSink) {
	var clk obs.StageClock
	clk.Attach(sink)
	clk.Skip()
	r := p.R
	r.INTTModDownTo(out.B, nd.BT)
	r.INTTModDownTo(out.A, nd.A)
	clk.Mark(obs.StageINTT) // the divisions ride the inverse transforms
	clk.Flush()
}

// PackResident folds m := len(nodes) resident slot ciphertexts into
// nodes[0], which is returned still resident (FlushInto completes the
// exit). m must be a power of two covered by keys. The entries of nodes
// are consumed: every buffer is overwritten as tree scratch.
//
// It is the post-order fold over leaves that already exist: each
// first-level pair is built in place over its even leaf, the merges run
// in the nodes themselves, split across min(workers, m/2) goroutines by
// disjoint subtrees, and the result is bit-identical for every worker
// count.
func PackResident(p bfv.Params, nodes []*PackNode, keys *PackingKeys, workers int) (*PackNode, error) {
	f, ok := residentFolds.Get().(*Fold)
	if !ok {
		f = new(Fold)
	}
	defer residentFolds.Put(f)
	return f.run(p, len(nodes), (*residentPairs)(f), nodes, keys, workers, nil)
}

// residentFolds recycles PackResident's folds. Over pre-filled nodes a
// fold never allocates slots and borrows its merge scratch per call, so
// it holds nothing ring-specific and one process-wide pool is safe.
var residentFolds sync.Pool

// residentPairs is a Fold's source under PackResident: the leaves are the
// fold's nodes, and the fold hands pair idx its even leaf, nodes[idx], to
// build the pair over.
type residentPairs Fold

func (s *residentPairs) Pair(nd, scratch *PackNode, idx int, clk *obs.StageClock) *ring.Poly {
	if s.m == 1 {
		return nil // nd is the leaf
	}
	d := mergeFront(s.p.R, nd, nd, s.nodes[idx+s.m/2], scratch, s.p.R.N/2, 3)
	clk.Mark(obs.StagePack)
	return d
}

// Pairs supplies a fold's first level: the merges at group size 1, of
// leaves idx and idx+m/2, which a source can build more cheaply than two
// leaves and a merge — core's prepared tiles split each sibling row pair
// once, in Prepare. A fold of m ≥ 2 leaves asks for its m/2 pairs, each
// once; a fold of one leaf asks for that leaf and merges nothing.
type Pairs interface {
	// Pair writes into nd the merge of leaves E = idx and O = idx+m/2
	// (idx < m/2) up to its key switch — nd.A = E.A + X^{N/2}·O.A and
	// nd.BT = E.BT + X^{N/2}·O.BT + φ_3(E.BT − X^{N/2}·O.BT) — and returns
	// the difference a-part E.A − X^{N/2}·O.A: in scratch.A, or nd.A
	// itself when O is zero and the two are equal. The fold gathers it and
	// runs the merge's tail. scratch is a full-basis node the fold lends
	// for the call. With m = 1, Pair writes leaf 0 into nd as a resident
	// slot ciphertext and its result is unused. Workers call concurrently,
	// each with its own nd and scratch. clk is the asking worker's running
	// stage clock: the source charges its work to stages with Mark, or
	// discards it with Skip, before it returns.
	Pair(nd, scratch *PackNode, idx int, clk *obs.StageClock) *ring.Poly
}

// Fold is the packing tree's reduce buffer: per worker, a stack of at
// most log₂(its subtree's pairs)+1 resident nodes and a borrowed merge
// arena. The zero value is ready to use. Keep one per caller and reuse it
// — a warm Run allocates nothing, with any worker count. A Fold serves
// one Params (its slots are sized on first use) and one Run at a time,
// and must not be copied.
type Fold struct {
	p     bfv.Params
	m     int
	keys  *PackingKeys
	src   Pairs
	nodes []*PackNode // PackResident's leaves, which hold its units; nil when units go to slots
	ws    []*foldWorker
}

// foldWorker is one worker's share of a Fold. Each is its own allocation
// with clk more than a cache line from either end, so the clock a worker
// writes at every row and merge shares no line with another worker's.
type foldWorker struct {
	f     *Fold
	id    int
	slots []*PackNode // reduce buffer: slots[d] holds the stack entry at depth d
	stack []*PackNode // roots of finished subtrees, leftmost at the bottom
	ms    *mergeScratch
	clk   obs.StageClock // the worker's pairs and merges, published once per Run
	// A split hands the worker group starting here the subtree (r, c) —
	// the leaves ≡ r mod c — on nw workers; its root comes back in root.
	r, c, nw int
	root     *PackNode
	done     sync.WaitGroup
	spawn    func() // foldGroup, bound once so that `go spawn()` does not allocate
}

// Slots returns how many resident nodes the fold's reduce buffer holds,
// summed over its workers.
func (f *Fold) Slots() int {
	n := 0
	for _, fw := range f.ws {
		n += len(fw.slots)
	}
	return n
}

// Run folds the m leaves whose first level src supplies into one resident
// node, returned still resident in the fold's own buffer (FlushInto
// completes the exit; the node is valid until the next Run). m must be a
// power of two covered by keys; every key is checked before the first
// pair is asked for. Each worker's clock publishes its pairs' and merges'
// stages once, when the fold ends. A non-nil sink (a traced request's
// recorder) also receives them.
func (f *Fold) Run(p bfv.Params, m int, src Pairs, keys *PackingKeys, workers int, sink obs.StageSink) (*PackNode, error) {
	return f.run(p, m, src, nil, keys, workers, sink)
}

func (f *Fold) run(p bfv.Params, m int, src Pairs, nodes []*PackNode, keys *PackingKeys, workers int, sink obs.StageSink) (*PackNode, error) {
	if err := checkPack(p, m, keys); err != nil {
		return nil, err
	}
	f.p, f.m, f.keys, f.src, f.nodes = p, m, keys, src, nodes
	nw := min(max(workers, 1), max(m/2, 1)) // a worker's subtree holds at least one pair
	for len(f.ws) < nw {
		fw := &foldWorker{f: f, id: len(f.ws)}
		fw.spawn = fw.foldGroup
		f.ws = append(f.ws, fw)
	}
	for _, fw := range f.ws[:nw] {
		fw.ms = getMergeScratch(p)
		fw.clk.Attach(sink)
	}
	root := f.fold(0, nw, 0, 1)
	for _, fw := range f.ws[:nw] {
		fw.clk.Flush()
		fw.clk.Attach(nil) // the next Run must not charge this one's trace
		putMergeScratch(p, fw.ms)
		fw.ms, fw.root = nil, nil
	}
	mergesCnt.Add(uint64(m - 1))
	f.keys, f.src, f.nodes = nil, nil, nil
	return root, nil
}

// checkPack validates a fold of m leaves before it touches any: the shape,
// then every key the tree will use, so a missing top-level key fails the
// call with the caller's nodes untouched.
func checkPack(p bfv.Params, m int, keys *PackingKeys) error {
	if m < 1 || m&(m-1) != 0 || m > p.R.N {
		return fmt.Errorf("lwe: cannot pack %d ciphertexts (need power of two in [1,N])", m)
	}
	if m == 1 {
		return nil
	}
	if keys == nil {
		return fmt.Errorf("lwe: packing keys required for m=%d", m)
	}
	if keys.M < m {
		return fmt.Errorf("lwe: packing keys cover m=%d < %d", keys.M, m)
	}
	for i := 1; i < m; i <<= 1 {
		if keys.Keys[2*i+1] == nil {
			return fmt.Errorf("lwe: missing packing key for k=%d", 2*i+1)
		}
	}
	return nil
}

// fold folds the subtree (r, c) — the m/c leaves ≡ r mod c — on workers
// w0 … w0+nw-1 and returns its root, which lands in worker w0's buffer.
// With more than one worker the odd half goes to a goroutine with ⌈nw/2⌉
// of them, the even half stays here with ⌊nw/2⌋, and the two roots merge
// once.
func (f *Fold) fold(w0, nw, r, c int) *PackNode {
	if nw == 1 {
		return f.ws[w0].serial(r, c)
	}
	h := nw / 2
	odd := f.ws[w0+h]
	odd.r, odd.c, odd.nw = r+c, 2*c, nw-h
	odd.done.Add(1)
	go odd.spawn()
	E := f.fold(w0, h, r, 2*c)
	odd.done.Wait()
	f.ws[w0].clk.Skip() // the wait is no stage
	i := f.m / (2 * c)
	packTwo(f.p, E, i, E, odd.root, f.keys.Keys[2*i+1], f.ws[w0].ms, &f.ws[w0].clk)
	return E
}

// foldGroup runs the subtree a split handed this worker's group.
func (fw *foldWorker) foldGroup() {
	fw.root = fw.f.fold(fw.id, fw.nw, fw.r, fw.c)
	fw.done.Done()
}

// serial folds the subtree (r, c) on this worker alone. Its units are
// the n first-level pairs of its leaves (a one-leaf tree's unit is its
// leaf): pair s in post-order is r + c·bitrev(s) over log₂n bits, and
// after pushing it the top two entries are siblings once for every
// trailing one bit of s — the merges at group sizes 2, 4, ….
func (fw *foldWorker) serial(r, c int) *PackNode {
	f := fw.f
	n := max(f.m/c/2, 1)
	shift := bits.UintSize - bits.TrailingZeros(uint(n)) // bitrev over log₂n bits (a full-width shift gives 0 when n = 1)
	stk := fw.stack[:0]
	fw.clk.Skip()
	for s := 0; s < n; s++ {
		stk = append(stk, fw.unit(len(stk), r+c*int(bits.Reverse(uint(s))>>shift)))
		for t, i := s, 2; t&1 == 1; t, i = t>>1, i<<1 {
			d := len(stk)
			packTwo(f.p, stk[d-2], i, stk[d-2], stk[d-1], f.keys.Keys[2*i+1], fw.ms, &fw.clk)
			stk = stk[:d-1]
		}
	}
	fw.stack = stk[:0]
	return stk[0]
}

// unit returns first-level pair idx for the stack entry at depth d, built
// in slot d — under PackResident, in its even leaf — by the source's front
// half, then the gather of its difference a-part and the merge's tail
// under key 3. A one-leaf tree's unit is the leaf, with no merge.
func (fw *foldWorker) unit(d, idx int) *PackNode {
	f := fw.f
	var nd *PackNode
	if f.nodes != nil {
		nd = f.nodes[idx]
	} else {
		for len(fw.slots) <= d {
			fw.slots = append(fw.slots, NewPackNode(f.p))
		}
		nd = fw.slots[d]
	}
	diff := f.src.Pair(nd, &fw.ms.d, idx, &fw.clk)
	if f.m == 1 {
		return nd
	}
	f.p.R.AutomorphNTT(fw.ms.d.BT, diff, 3)
	fw.clk.Mark(obs.StagePack)
	mergeTail(f.p, nd, fw.ms.d.BT, f.keys.Keys[3], fw.ms, &fw.clk)
	return nd
}
