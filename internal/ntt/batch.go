package ntt

// Limb-batched transforms: ForwardBatch and InverseBatch sweep several
// rows that share one twiddle table through each butterfly pass together,
// the software analogue of the multi-lane butterfly arrays in Hermes-style
// hybrid-dataflow NTT engines. Batching pays twice on a scalar core:
//
//   - every twiddle (and its Shoup companion) is loaded once per butterfly
//     position instead of once per row, which matters most in the late
//     forward / early inverse stages where spans are short and twiddle
//     traffic dominates, and
//   - the two rows' butterflies form independent dependency chains, so the
//     64×64→128 multiplies of one row hide under the other's latency.
//
// The key-switch hot path always has natural pairs sharing a table: the
// two RNS digits of one decomposition at each limb, and the c0/c1
// accumulator rows at each limb. Rows are processed two at a time; an odd
// remainder falls back to the single-row kernel. Results are bit-identical
// to ForwardLazy/InverseLazy row by row (same lazy schedule, same fused
// canonical final stage).

import "math/bits"

// ForwardBatch forward-transforms every row in place. Each row must have
// length N and may hold any representatives below 4q; outputs are fully
// reduced. Rows are paired per butterfly pass to amortize twiddle loads.
func (t *Table) ForwardBatch(rows ...[]uint64) {
	for _, a := range rows {
		if len(a) != t.N {
			panic("ntt: length mismatch")
		}
	}
	i := 0
	for ; i+1 < len(rows); i += 2 {
		t.forwardPair(rows[i], rows[i+1])
	}
	if i < len(rows) {
		t.forwardOne(rows[i])
	}
}

// InverseBatch inverse-transforms every row in place, including the N^-1
// normalization. Each row must have length N and hold values below 2q;
// outputs are fully reduced.
func (t *Table) InverseBatch(rows ...[]uint64) {
	for _, a := range rows {
		if len(a) != t.N {
			panic("ntt: length mismatch")
		}
	}
	i := 0
	for ; i+1 < len(rows); i += 2 {
		t.inversePair(rows[i], rows[i+1])
	}
	if i < len(rows) {
		t.inverseOne(rows[i])
	}
}

// forwardPair runs the lazy forward schedule of forwardOne on two rows
// under one twiddle sweep. Each row is transformed exactly once: a row the
// accelerated kernel took is done, a row it declined runs forwardOne, and
// the pair loop below runs only when the kernel declined both.
func (t *Table) forwardPair(a, b []uint64) {
	switch va, vb := t.forwardVec(a), t.forwardVec(b); {
	case va && vb:
		return
	case va:
		t.forwardOne(b)
		return
	case vb:
		t.forwardOne(a)
		return
	}
	m := t.M
	q := m.Q
	twoQ := 2 * q
	n := t.N
	span := n
	for blocks := 1; blocks < n>>1; blocks <<= 1 {
		span >>= 1
		for i := 0; i < blocks; i++ {
			w := t.rootsFwd[blocks+i]
			wp := t.rootsFwdShoup[blocks+i]
			base := 2 * i * span
			alo := a[base : base+span : base+span]
			ahi := a[base+span : base+2*span]
			ahi = ahi[:span:span]
			blo := b[base : base+span : base+span]
			bhi := b[base+span : base+2*span]
			bhi = bhi[:span:span]
			for j := range alo {
				u0 := alo[j]
				if u0 >= twoQ {
					u0 -= twoQ
				}
				x0 := ahi[j]
				qh0, _ := bits.Mul64(x0, wp)
				v0 := x0*w - qh0*q
				u1 := blo[j]
				if u1 >= twoQ {
					u1 -= twoQ
				}
				x1 := bhi[j]
				qh1, _ := bits.Mul64(x1, wp)
				v1 := x1*w - qh1*q
				alo[j] = u0 + v0
				ahi[j] = u0 + twoQ - v0
				blo[j] = u1 + v1
				bhi[j] = u1 + twoQ - v1
			}
		}
	}
	// Final stage (span == 1), full reduction fused.
	half := n >> 1
	for i := 0; i < half; i++ {
		w := t.rootsFwd[half+i]
		wp := t.rootsFwdShoup[half+i]
		j := 2 * i
		u0 := a[j]
		if u0 >= twoQ {
			u0 -= twoQ
		}
		x0 := a[j+1]
		qh0, _ := bits.Mul64(x0, wp)
		v0 := x0*w - qh0*q
		u1 := b[j]
		if u1 >= twoQ {
			u1 -= twoQ
		}
		x1 := b[j+1]
		qh1, _ := bits.Mul64(x1, wp)
		v1 := x1*w - qh1*q
		r0 := u0 + v0
		r1 := u0 + twoQ - v0
		r2 := u1 + v1
		r3 := u1 + twoQ - v1
		if r0 >= twoQ {
			r0 -= twoQ
		}
		if r0 >= q {
			r0 -= q
		}
		if r1 >= twoQ {
			r1 -= twoQ
		}
		if r1 >= q {
			r1 -= q
		}
		if r2 >= twoQ {
			r2 -= twoQ
		}
		if r2 >= q {
			r2 -= q
		}
		if r3 >= twoQ {
			r3 -= twoQ
		}
		if r3 >= q {
			r3 -= q
		}
		a[j], a[j+1] = r0, r1
		b[j], b[j+1] = r2, r3
	}
}

// inversePair runs the lazy inverse schedule of inverseOne on two rows
// under one twiddle sweep, N^-1 fused into the final stage. Each row is
// transformed exactly once, by the same rule as forwardPair.
func (t *Table) inversePair(a, b []uint64) {
	switch va, vb := t.inverseVec(a), t.inverseVec(b); {
	case va && vb:
		return
	case va:
		t.inverseOne(b)
		return
	case vb:
		t.inverseOne(a)
		return
	}
	m := t.M
	q := m.Q
	twoQ := 2 * q
	n := t.N
	span := 1
	for blocks := n >> 1; blocks > 1; blocks >>= 1 {
		base := 0
		for i := 0; i < blocks; i++ {
			w := t.rootsInv[blocks+i]
			wp := t.rootsInvShoup[blocks+i]
			alo := a[base : base+span : base+span]
			ahi := a[base+span : base+2*span]
			ahi = ahi[:span:span]
			blo := b[base : base+span : base+span]
			bhi := b[base+span : base+2*span]
			bhi = bhi[:span:span]
			for j := range alo {
				u0, v0 := alo[j], ahi[j]
				s0 := u0 + v0
				if s0 >= twoQ {
					s0 -= twoQ
				}
				d0 := u0 + twoQ - v0
				qh0, _ := bits.Mul64(d0, wp)
				u1, v1 := blo[j], bhi[j]
				s1 := u1 + v1
				if s1 >= twoQ {
					s1 -= twoQ
				}
				d1 := u1 + twoQ - v1
				qh1, _ := bits.Mul64(d1, wp)
				alo[j] = s0
				ahi[j] = d0*w - qh0*q
				blo[j] = s1
				bhi[j] = d1*w - qh1*q
			}
			base += 2 * span
		}
		span <<= 1
	}
	// Final stage with N^-1 folded into the last Shoup multiplies.
	half := n >> 1
	wn, wnp := t.nInvRoot, t.nInvRootShoup
	nv, nvp := t.nInv, t.nInvShoup
	alo := a[:half:half]
	ahi := a[half:]
	ahi = ahi[:half:half]
	blo := b[:half:half]
	bhi := b[half:]
	bhi = bhi[:half:half]
	for j := range alo {
		u0, v0 := alo[j], ahi[j]
		s0 := u0 + v0
		qh, _ := bits.Mul64(s0, nvp)
		r := s0*nv - qh*q
		if r >= q {
			r -= q
		}
		alo[j] = r
		d0 := u0 + twoQ - v0
		qh, _ = bits.Mul64(d0, wnp)
		r = d0*wn - qh*q
		if r >= q {
			r -= q
		}
		ahi[j] = r
		u1, v1 := blo[j], bhi[j]
		s1 := u1 + v1
		qh, _ = bits.Mul64(s1, nvp)
		r = s1*nv - qh*q
		if r >= q {
			r -= q
		}
		blo[j] = r
		d1 := u1 + twoQ - v1
		qh, _ = bits.Mul64(d1, wnp)
		r = d1*wn - qh*q
		if r >= q {
			r -= q
		}
		bhi[j] = r
	}
}
