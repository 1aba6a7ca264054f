package lwe

// NTT-resident, allocation-free packing tree (DESIGN.md §12), folded
// post-order as the leaves arrive — the software form of CHAM's
// PACKTWOLWES module, whose reduce buffer merges a row's LWE as soon as
// its sibling exists (pipeline.ReduceBufferSlots models it).
//
// The recursion of Alg. 3 splits the leaves ≡ r mod c into the even
// group (≡ r mod 2c) and the odd one (≡ r+c mod 2c) and merges the two
// with group size i = m/2c. Walking that recursion depth-first, even
// half first, asks for the leaves in bit-reversed order (0, m/2, m/4,
// 3m/4, …), and every merge sees the same E, O, key and i as the
// level-order walk of ref.PackDeferred — so the fold is bit-identical to
// it by construction. A worker keeps the roots of its finished subtrees
// on a stack: a leaf is pushed, and while the two on top are siblings
// they merge into the lower one. A subtree of 2^L leaves never holds
// more than L+1 nodes, so the reduce buffer is log₂m+1 slots, not m
// resident leaves. With w workers the fold splits recursively: a subtree
// runs its even half on ⌊w/2⌋ workers and its odd half on ⌈w/2⌉, then
// merges the two roots once; each worker folds its disjoint subtree with
// its own slots and merge scratch.
//
// Tree state never leaves the NTT domain. A node carries
//
//	(BT, A)  with true ciphertext  (ModDown(BT), ModDown(A)),
//
// BOTH parts full-basis NTT accumulators whose division by the special
// modulus is DEFERRED: leaves enter as exact multiples P·ct (or as
// un-rescaled row accumulators on the core fast path), every merge adds
// its key-switch contributions to both parts un-rescaled, and the
// rounding divisions run once per tree at FlushInto. Monomials are
// pointwise multiplies, automorphisms are cached slot gathers, and the
// only per-merge rescale is of the gathered difference a-part feeding the
// digit decomposition — the one place the tree is nonlinear in a. Keeping
// the a accumulator deferred is what lets core's row leaves skip their
// per-row RESCALE entirely: the raw full-basis dot-product accumulator IS
// the leaf.

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
// under intt and moddown. Both are timed by an obs.StageClock, the one
// stage clock core's row apply uses too.
var mergesCnt = obs.GetCounter("cham_hmvp_pack_merges_total",
	"PACKTWOLWES tree merges (m-1 per packed tile).")

// PackNode is one NTT-resident packing-tree operand: both parts are
// full-basis NTT accumulators with their special-modulus division
// deferred — the ciphertext it stands for is (ModDown(BT), ModDown(A)).
// Allocate with NewPackNode, fill with ResidentFromRLWE (or directly, as
// core's row apply does), fold with a Fold (or PackResident over pre-filled
// nodes), and leave residency with FlushInto.
type PackNode struct {
	BT *ring.Poly // full basis, NTT domain; true b = ModDown(BT)
	A  *ring.Poly // full basis, NTT domain; true a = ModDown(A)
}

// NewPackNode allocates an (uninitialized) resident tree node.
func NewPackNode(p bfv.Params) *PackNode {
	return &PackNode{BT: p.R.NewPoly(p.R.Levels()), A: p.R.NewPoly(p.R.Levels())}
}

// Zero resets nd to the resident zero ciphertext (the padding value of
// partial tiles).
func (nd *PackNode) Zero() {
	nd.BT.Zero()
	nd.A.Zero()
	nd.BT.IsNTT = true
	nd.A.IsNTT = true
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
// decomposition digits plus the difference pair and the rescaled a-part a
// merge needs, and the clock that times the merge's stages. One scratch
// serves every merge a fold worker runs, keeping the buffers
// cache-resident instead of cycling the pool per merge.
type mergeScratch struct {
	dec *rlwe.Decomposition
	dBT *ring.Poly     // full basis: E.BT - X^z·O.BT
	dA  *ring.Poly     // full basis: E.A - X^z·O.A
	aN  *ring.Poly     // normal basis, coefficient domain: rescaled gathered a
	clk obs.StageClock // attached to the fold's sink for one Run
}

// msShells recycles mergeScratch headers; the buffers they carry come from
// the ring and decomposition pools. Shells are ring-agnostic (four
// pointers and a detached clock), so one process-wide pool is safe.
var msShells sync.Pool

// getMergeScratch borrows a merge arena from the pools.
func getMergeScratch(p bfv.Params) *mergeScratch {
	ms, ok := msShells.Get().(*mergeScratch)
	if !ok {
		ms = &mergeScratch{}
	}
	full := p.R.Levels()
	ms.dec = p.GetDecomposition()
	ms.dBT = p.R.GetPoly(full)
	ms.dA = p.R.GetPoly(full)
	ms.aN = p.R.GetPoly(p.NormalLevels)
	return ms
}

// putMergeScratch returns a merge arena to the pools. The caller must not
// use ms afterwards.
func putMergeScratch(p bfv.Params, ms *mergeScratch) {
	if ms == nil {
		return
	}
	p.PutDecomposition(ms.dec)
	p.R.PutPoly(ms.dBT)
	p.R.PutPoly(ms.dA)
	p.R.PutPoly(ms.aN)
	ms.dec, ms.dBT, ms.dA, ms.aN = nil, nil, nil, nil
	// The next borrower must not charge its stages to this Run's trace.
	ms.clk.Attach(nil)
	msShells.Put(ms)
}

// packTwo merges two resident groups of size i (PACKTWOLWES, Alg. 2)
// without leaving the NTT domain:
//
//	out = (E + X^{N/2i}·O) + φ_{2i+1}(E - X^{N/2i}·O),
//
// with the automorphism realised as a slot gather, its key switch
// accumulated digit-resident, and BOTH key-switch contributions deferred
// into the full-basis accumulators un-rescaled. The only rescale is of
// the gathered difference a-part feeding the digit decomposition — the
// one place the merge is nonlinear in a. E and O are consumed
// (overwritten as scratch); out may alias E but not O. ms.clk times the
// four stages.
func packTwo(p bfv.Params, out *PackNode, i int, E, O *PackNode, swk *rlwe.SwitchingKey, ms *mergeScratch) {
	clk := &ms.clk
	clk.Start()
	r := p.R
	z := r.N / (2 * i)
	k := 2*i + 1
	// One sweep computes sum and difference without materializing X^z·O
	// (the difference lands in scratch before the sum can clobber E, which
	// out may alias); the b gather then accumulates straight into the sum,
	// while the a gather materializes into O's free buffer — the operand
	// the rescale inverts next.
	r.MonomialSplitNTT(out.BT, ms.dBT, E.BT, O.BT, z)
	r.MonomialSplitNTT(out.A, ms.dA, E.A, O.A, z)
	r.AutomorphNTTAddInto(out.BT, ms.dBT, k)
	r.AutomorphNTT(O.A, ms.dA, k)
	clk.Mark(obs.StagePack)
	// φ_k(diff) decrypts under φ_k(s); the switch brings its TRUE a-part
	// ModDown(φ_k(dA)) back under s. The rescale runs in coefficient form —
	// the view the digit lifts read anyway, so its inverse transforms
	// replace (not add to) the decomposition's.
	r.INTT(O.A)
	r.ModDownTo(ms.aN, O.A)
	clk.Mark(obs.StagePackModDown)
	// Decomposition commutes with φ_k, so the digits are built straight
	// from the gathered, rescaled a-part.
	p.DecomposeInto(ms.dec, ms.aN)
	clk.Mark(obs.StageDecompose)
	// Both switched parts join their accumulators un-rescaled: the deferred
	// divisions run once per tree, at FlushInto.
	p.KeySwitchAccumulateNTT(out.BT, out.A, ms.dec, swk)
	clk.Mark(obs.StageKeySwitch)
	clk.Flush()
	if obs.On() {
		mergesCnt.Inc()
	}
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
	clk.Start()
	r := p.R
	r.INTT(nd.BT)
	r.INTT(nd.A)
	clk.Mark(obs.StageINTT)
	r.ModDownTo(out.B, nd.BT)
	r.ModDownTo(out.A, nd.A)
	clk.Mark(obs.StagePackModDown)
	clk.Flush()
}

// PackResident folds m := len(nodes) resident slot ciphertexts into
// nodes[0], which is returned still resident (FlushInto completes the
// exit). m must be a power of two covered by keys. The entries of nodes
// are consumed: every buffer is overwritten as tree scratch.
//
// It is the post-order fold over leaves that already exist: the merges
// run in the nodes themselves, split across min(workers, m) goroutines
// by disjoint subtrees, and the result is bit-identical for every worker
// count.
func PackResident(p bfv.Params, nodes []*PackNode, keys *PackingKeys, workers int) (*PackNode, error) {
	f, ok := residentFolds.Get().(*Fold)
	if !ok {
		f = new(Fold)
	}
	defer residentFolds.Put(f)
	return f.run(p, len(nodes), nil, nodes, keys, workers, nil)
}

// residentFolds recycles PackResident's folds. Over pre-filled nodes a
// fold never allocates slots and borrows its merge scratch per call, so
// it holds nothing ring-specific and one process-wide pool is safe.
var residentFolds sync.Pool

// Leaves supplies a fold's leaves on demand.
type Leaves interface {
	// Leaf writes leaf idx (natural order, 0 ≤ idx < m) into nd as a
	// resident slot ciphertext. w names the fold worker asking
	// (0 ≤ w < workers); workers call concurrently, each with its own w,
	// so a source keeps its per-worker scratch by w.
	Leaf(w int, nd *PackNode, idx int)
}

// Fold is the packing tree's reduce buffer: per worker, a stack of at
// most log₂(its subtree)+1 resident nodes and a borrowed merge arena. The
// zero value is ready to use. Keep one per caller and reuse it — a warm
// Run allocates nothing, with any worker count. A Fold serves one Params
// (its slots are sized on first use) and one Run at a time, and must not
// be copied.
type Fold struct {
	p     bfv.Params
	m     int
	keys  *PackingKeys
	src   Leaves
	nodes []*PackNode // PackResident's pre-filled leaves; nil when src fills slots
	ws    []*foldWorker
}

// foldWorker is one worker's share of a Fold.
type foldWorker struct {
	f     *Fold
	id    int
	slots []*PackNode // reduce buffer: slots[d] holds the stack entry at depth d
	stack []*PackNode // roots of finished subtrees, leftmost at the bottom
	ms    *mergeScratch
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

// Run folds the m leaves src supplies into one resident node, returned
// still resident in the fold's own buffer (FlushInto completes the exit;
// the node is valid until the next Run). m must be a power of two covered
// by keys; every key is checked before the first leaf is asked for. A
// non-nil sink (a traced request's recorder) also receives every merge's
// stage durations; it must be safe for concurrent StageAdd calls, since a
// parallel fold's workers hit it simultaneously.
func (f *Fold) Run(p bfv.Params, m int, src Leaves, keys *PackingKeys, workers int, sink obs.StageSink) (*PackNode, error) {
	return f.run(p, m, src, nil, keys, workers, sink)
}

func (f *Fold) run(p bfv.Params, m int, src Leaves, nodes []*PackNode, keys *PackingKeys, workers int, sink obs.StageSink) (*PackNode, error) {
	if err := checkPack(p, m, keys); err != nil {
		return nil, err
	}
	nw := min(max(workers, 1), m)
	f.p, f.m, f.keys, f.src, f.nodes = p, m, keys, src, nodes
	for len(f.ws) < nw {
		fw := &foldWorker{f: f, id: len(f.ws)}
		fw.spawn = fw.foldGroup
		f.ws = append(f.ws, fw)
	}
	if m > 1 {
		for _, fw := range f.ws[:nw] {
			fw.ms = getMergeScratch(p)
			fw.ms.clk.Attach(sink)
		}
	}
	root := f.fold(0, nw, 0, 1)
	for _, fw := range f.ws[:nw] {
		putMergeScratch(p, fw.ms)
		fw.ms, fw.root = nil, nil
	}
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
	i := f.m / (2 * c)
	packTwo(f.p, E, i, E, odd.root, f.keys.Keys[2*i+1], f.ws[w0].ms)
	return E
}

// foldGroup runs the subtree a split handed this worker's group.
func (fw *foldWorker) foldGroup() {
	fw.root = fw.f.fold(fw.id, fw.nw, fw.r, fw.c)
	fw.done.Done()
}

// serial folds the subtree (r, c) on this worker alone: leaf s of its n
// leaves in post-order is r + c·bitrev(s), and after pushing it the top
// two entries are siblings once for every trailing one bit of s — the
// merges at group sizes 1, 2, 4, ….
func (fw *foldWorker) serial(r, c int) *PackNode {
	f := fw.f
	n := f.m / c
	shift := bits.UintSize - bits.TrailingZeros(uint(n)) // bitrev over log₂n bits (a full-width shift gives 0 when n = 1)
	stk := fw.stack[:0]
	for s := 0; s < n; s++ {
		stk = append(stk, fw.leaf(len(stk), r+c*int(bits.Reverse(uint(s))>>shift)))
		for t, i := s, 1; t&1 == 1; t, i = t>>1, i<<1 {
			d := len(stk)
			packTwo(f.p, stk[d-2], i, stk[d-2], stk[d-1], f.keys.Keys[2*i+1], fw.ms)
			stk = stk[:d-1]
		}
	}
	fw.stack = stk[:0]
	return stk[0]
}

// leaf returns leaf idx for the stack entry at depth d: the caller's node
// under PackResident, otherwise slot d filled by the source.
func (fw *foldWorker) leaf(d, idx int) *PackNode {
	f := fw.f
	if f.nodes != nil {
		return f.nodes[idx]
	}
	for len(fw.slots) <= d {
		fw.slots = append(fw.slots, NewPackNode(f.p))
	}
	f.src.Leaf(fw.id, fw.slots[d], idx)
	return fw.slots[d]
}
