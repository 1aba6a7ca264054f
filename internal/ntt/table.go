// Package ntt implements negacyclic number theoretic transforms over
// Z_q[X]/(X^N+1). One transform is production — the iterative
// Cooley-Tukey / Gentleman-Sande in-place schedule with lazy (Harvey)
// reductions, one row at a time (ForwardLazy/InverseLazy) or several rows
// under one twiddle sweep (ForwardBatch/InverseBatch), on vector kernels
// where the host has them. Two more are the paper's hardware, kept as the
// artefact they reproduce and checked against the production transform:
//
//   - the constant-geometry (Pease) dataflow of Alg. 4, whose butterfly
//     wiring is identical in every stage (cg.go), and
//   - a cycle-level banked model of the paper's Fig. 3 datapath with n_bf
//     butterfly units, round-robin RAM banks, ping-pong buffers, SWAP
//     reordering and per-BFU twiddle ROMs (Fig. 4, Table III; banked.go).
//
// Forward transforms map natural-order coefficients to bit-reversed-order
// evaluations at odd powers of the primitive 2N-th root ψ; inverse
// transforms undo that, including the N^-1 scaling.
package ntt

import (
	"fmt"
	"math/bits"
	"sync"

	"cham/internal/mod"
)

// Table holds precomputed twiddle factors for one (N, q) pair.
type Table struct {
	N    int
	LogN int
	M    mod.Modulus

	// scratch pools N-word work buffers for the out-of-place
	// constant-geometry passes, so transforms allocate nothing after
	// warm-up. Entries are *[]uint64 so Get/Put stay allocation-free.
	scratch sync.Pool

	Psi    uint64 // primitive 2N-th root of unity mod q
	PsiInv uint64

	// rootsFwd[k] = ψ^brv(k), k in [0,N), with brv over LogN bits.
	// This is the unified table both CT and CG address (see cg.go for the
	// CG indexing rule, which reproduces the paper's Fig. 4 layout).
	rootsFwd, rootsFwdShoup []uint64
	// rootsInv[k] = ψ^-brv(k), the elementwise inverse of rootsFwd.
	rootsInv, rootsInvShoup []uint64

	nInv, nInvShoup uint64
	// nInvRoot = rootsInv[1]·N^-1, the twiddle of the inverse transform's
	// final stage with the normalization folded in (see lazy.go/batch.go).
	nInvRoot, nInvRootShoup uint64
}

// NewTable builds twiddle tables for a size-N negacyclic NTT modulo q.
// N must be a power of two and q ≡ 1 (mod 2N).
func NewTable(n int, q uint64) (*Table, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: N=%d is not a power of two ≥ 2", n)
	}
	if (q-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("ntt: q=%d is not 1 mod 2N=%d", q, 2*n)
	}
	m, err := mod.TryNew(q)
	if err != nil {
		return nil, err
	}
	psi, err := mod.RootOfUnity(q, uint64(2*n))
	if err != nil {
		return nil, err
	}
	t := &Table{
		N:    n,
		LogN: bits.Len(uint(n)) - 1,
		M:    m,
		Psi:  psi,
	}
	t.PsiInv = m.Inv(psi)

	t.rootsFwd = make([]uint64, n)
	t.rootsFwdShoup = make([]uint64, n)
	t.rootsInv = make([]uint64, n)
	t.rootsInvShoup = make([]uint64, n)
	fwd, inv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		j := brv(uint(i), t.LogN)
		t.rootsFwd[j] = fwd
		t.rootsInv[j] = inv
		fwd = m.Mul(fwd, psi)
		inv = m.Mul(inv, t.PsiInv)
	}
	for i := 0; i < n; i++ {
		t.rootsFwdShoup[i] = m.ShoupPrecomp(t.rootsFwd[i])
		t.rootsInvShoup[i] = m.ShoupPrecomp(t.rootsInv[i])
	}
	t.nInv = m.Inv(uint64(n))
	t.nInvShoup = m.ShoupPrecomp(t.nInv)
	t.nInvRoot = m.Mul(t.rootsInv[1], t.nInv)
	t.nInvRootShoup = m.ShoupPrecomp(t.nInvRoot)
	return t, nil
}

// MustTable is NewTable for known-good parameters; it panics on error.
func MustTable(n int, q uint64) *Table {
	t, err := NewTable(n, q)
	if err != nil {
		panic(err)
	}
	return t
}

// getScratch borrows an N-word buffer from the table's pool. The returned
// pointer must be handed back with putScratch; the slice contents are
// arbitrary.
func (t *Table) getScratch() *[]uint64 {
	if p, ok := t.scratch.Get().(*[]uint64); ok {
		return p
	}
	buf := make([]uint64, t.N)
	return &buf
}

func (t *Table) putScratch(p *[]uint64) { t.scratch.Put(p) }

// brv reverses the low `width` bits of x.
func brv(x uint, width int) uint {
	return uint(bits.Reverse64(uint64(x)) >> (64 - width))
}
