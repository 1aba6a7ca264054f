package lwe

// NTT-resident, allocation-free packing tree (DESIGN.md §12). The
// recursive PackLWEs of Alg. 3 is expressed iteratively: after ℓ levels
// the live groups sit in the buffer prefix, and level ℓ (group size
// i = 2^ℓ) merges the pairs (buf[j], buf[j+count/2]) — exactly the
// even/odd split of the recursion. The m/2 merges inside one level are
// independent, so they fan out across a worker pool; merges consume their
// inputs in place, so the whole tree runs in the caller's m node buffers
// plus one pooled scratch per worker.
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
	"sync"
	"sync/atomic"
	"time"

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
// under intt and moddown.
var (
	packSec   = obs.StageHistogram(obs.StagePack)
	decSec    = obs.StageHistogram(obs.StageDecompose)
	ksSec     = obs.StageHistogram(obs.StageKeySwitch)
	pmdSec    = obs.StageHistogram(obs.StagePackModDown)
	inttSec   = obs.StageHistogram(obs.StageINTT)
	mergesCnt = obs.GetCounter("cham_hmvp_pack_merges_total",
		"PACKTWOLWES tree merges (m-1 per packed tile).")
)

// observeStage publishes one stage duration: to the sink when a sampled
// request is tracing this apply (with the trace ID as the histogram
// exemplar), to the histogram alone otherwise. hist is the caller's
// cached obs.On().
func observeStage(h *obs.Histogram, stage int, d time.Duration, hist bool, sink obs.StageSink) {
	if sink != nil {
		sink.StageAdd(stage, d)
		if hist {
			h.ObserveExemplar(d.Seconds(), sink.ExemplarLabel())
		}
		return
	}
	if hist {
		h.Observe(d.Seconds())
	}
}

// PackNode is one NTT-resident packing-tree operand: both parts are
// full-basis NTT accumulators with their special-modulus division
// deferred — the ciphertext it stands for is (ModDown(BT), ModDown(A)).
// Allocate with NewPackNode, fill with ResidentFromRLWE (or directly, as
// core's row apply does), fold with PackResident, and leave residency
// with FlushInto.
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
// merge needs. One scratch serves every merge a worker claims at a tree
// level, keeping the buffers cache-resident instead of cycling the pool
// per merge.
type mergeScratch struct {
	dec *rlwe.Decomposition
	dBT *ring.Poly // full basis: E.BT - X^z·O.BT
	dA  *ring.Poly // full basis: E.A - X^z·O.A
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
// (overwritten as scratch); out may alias E but not O. Per-stage
// durations also go to sink (a traced request's recorder) when non-nil.
func packTwo(p bfv.Params, out *PackNode, i int, E, O *PackNode, swk *rlwe.SwitchingKey, ms *mergeScratch, sink obs.StageSink) {
	hist := obs.On()
	on := hist || sink != nil
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
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
	var t1 time.Time
	if on {
		t1 = time.Now()
	}
	// φ_k(diff) decrypts under φ_k(s); the switch brings its TRUE a-part
	// ModDown(φ_k(dA)) back under s. The rescale runs in coefficient form —
	// the view the digit lifts read anyway, so its inverse transforms
	// replace (not add to) the decomposition's.
	r.INTT(O.A)
	r.ModDownTo(ms.aN, O.A)
	var t2 time.Time
	if on {
		t2 = time.Now()
	}
	// Decomposition commutes with φ_k, so the digits are built straight
	// from the gathered, rescaled a-part.
	p.DecomposeInto(ms.dec, ms.aN)
	var t3 time.Time
	if on {
		t3 = time.Now()
	}
	// Both switched parts join their accumulators un-rescaled: the deferred
	// divisions run once per tree, at FlushInto.
	p.KeySwitchAccumulateNTT(out.BT, out.A, ms.dec, swk)
	if on {
		t4 := time.Now()
		observeStage(packSec, obs.StagePack, t1.Sub(t0), hist, sink)
		observeStage(pmdSec, obs.StagePackModDown, t2.Sub(t1), hist, sink)
		observeStage(decSec, obs.StageDecompose, t3.Sub(t2), hist, sink)
		observeStage(ksSec, obs.StageKeySwitch, t4.Sub(t3), hist, sink)
		if hist {
			mergesCnt.Inc()
		}
	}
}

// FlushInto leaves residency: out.B = ModDown(INTT(nd.BT)) and out.A =
// ModDown(INTT(nd.A)) — the whole tree's deferred divisions, once per
// part. out must be a normal-basis ciphertext; nd is consumed.
//
// The benchmark pins the sink-less FlushInto and PackResident signatures,
// so these two X/XSink pairs stay until a benchmark issue re-points it.
func FlushInto(p bfv.Params, out *rlwe.Ciphertext, nd *PackNode) {
	FlushIntoSink(p, out, nd, nil)
}

// FlushIntoSink is FlushInto with per-stage durations also routed to sink;
// nil sink is exactly FlushInto.
func FlushIntoSink(p bfv.Params, out *rlwe.Ciphertext, nd *PackNode, sink obs.StageSink) {
	hist := obs.On()
	on := hist || sink != nil
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	r := p.R
	r.INTT(nd.BT)
	r.INTT(nd.A)
	var t1 time.Time
	if on {
		t1 = time.Now()
	}
	r.ModDownTo(out.B, nd.BT)
	r.ModDownTo(out.A, nd.A)
	if on {
		t2 := time.Now()
		observeStage(inttSec, obs.StageINTT, t1.Sub(t0), hist, sink)
		observeStage(pmdSec, obs.StagePackModDown, t2.Sub(t1), hist, sink)
	}
}

// PackResident folds m := len(nodes) resident slot ciphertexts into
// nodes[0], which is returned still resident (FlushInto completes the
// exit). m must be a power of two covered by keys. The entries of nodes
// are consumed: every buffer is overwritten as tree scratch.
//
// Each tree level's independent merges run on min(workers, pairs)
// goroutines; the merge for pair j touches only nodes[j] and
// nodes[j+half], so the result is bit-identical for every worker count.
func PackResident(p bfv.Params, nodes []*PackNode, keys *PackingKeys, workers int) (*PackNode, error) {
	return PackResidentSink(p, nodes, keys, workers, nil)
}

// PackResidentSink is PackResident with per-stage durations also routed to
// sink (which must be safe for concurrent StageAdd calls — the parallel
// path's workers hit it simultaneously); nil sink is exactly PackResident.
func PackResidentSink(p bfv.Params, nodes []*PackNode, keys *PackingKeys, workers int, sink obs.StageSink) (*PackNode, error) {
	m := len(nodes)
	if m < 1 || m&(m-1) != 0 || m > p.R.N {
		return nil, fmt.Errorf("lwe: cannot pack %d ciphertexts (need power of two in [1,N])", m)
	}
	if keys == nil && m > 1 {
		return nil, fmt.Errorf("lwe: packing keys required for m=%d", m)
	}
	if m > 1 && keys.M < m {
		return nil, fmt.Errorf("lwe: packing keys cover m=%d < %d", keys.M, m)
	}
	count := m
	var ms *mergeScratch // serial-path arena, shared by every level
	for i := 1; i < m; i <<= 1 {
		half := count / 2
		swk := keys.Keys[2*i+1]
		if swk == nil {
			putMergeScratch(p, ms)
			return nil, fmt.Errorf("lwe: missing packing key for k=%d", 2*i+1)
		}
		if workers > 1 && half > 1 {
			nw := workers
			if nw > half {
				nw = half
			}
			packLevelParallel(p, nodes, i, half, swk, nw, sink)
		} else {
			if ms == nil {
				ms = getMergeScratch(p)
			}
			for j := 0; j < half; j++ {
				packTwo(p, nodes[j], i, nodes[j], nodes[j+half], swk, ms, sink)
			}
		}
		count = half
	}
	putMergeScratch(p, ms)
	return nodes[0], nil
}

// packLevelParallel fans one tree level's merges across nw goroutines,
// each reusing one merge arena for every merge it claims at this level.
// It lives in its own function so the goroutine closure's captures don't
// force the caller's loop variables onto the heap on the serial path.
func packLevelParallel(p bfv.Params, nodes []*PackNode, i, half int, swk *rlwe.SwitchingKey, nw int, sink obs.StageSink) {
	var next int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			ms := getMergeScratch(p)
			defer putMergeScratch(p, ms)
			for {
				j := int(atomic.AddInt64(&next, 1)) - 1
				if j >= half {
					return
				}
				packTwo(p, nodes[j], i, nodes[j], nodes[j+half], swk, ms, sink)
			}
		}()
	}
	wg.Wait()
}
