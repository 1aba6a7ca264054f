package ntt

import "fmt"

// BankedUnit is a cycle-level model of the CHAM NTT functional unit
// (paper Fig. 3): n_bf butterfly units fed from 2·n_bf single-read
// single-write RAM banks in a ping-pong arrangement, with the up-and-down
// read order, ascending write order, SWAP reordering and one twiddle ROM
// bank per BFU (Fig. 4).
//
// Running a transform through the model produces bit-identical results to
// Table.ForwardLazy/InverseLazy while additionally checking, every cycle, that no
// RAM bank is read or written more than once — the structural property the
// constant-geometry dataflow guarantees and the reason the design needs no
// multiplexer trees. It also reports the exact cycle count, which feeds the
// pipeline simulator and Table III.
type BankedUnit struct {
	T   *Table
	NBF int // number of butterfly units (the paper's n_bf; CHAM uses 4)

	// roms[b] is the twiddle ROM of BFU b: the factors it consumes in
	// issue order across all stages (Fig. 4 column layout), with Shoup
	// companion words alongside as a real implementation would store them.
	roms     [][]uint64
	romShoup [][]uint64

	// Stats from the last transform.
	Cycles        int
	BankConflicts int
	ROMDepth      int

	seen []bool // scratch for per-cycle bank-conflict checking

	// Ping-pong RAM model, allocated once: transforms alternate between
	// the two banks and return whichever holds the final stage, so the
	// returned slice is owned by the unit and valid until the next
	// transform. These mirror the table-owned scratch of the software CG
	// path — the real datapath has exactly two RAM halves, not a fresh
	// buffer per job.
	bufA, bufB []uint64
}

// NewBankedUnit models an NTT unit with nbf butterfly units. nbf must be a
// power of two in [1, N/4]: one up-and-down read pair covers 2·n_bf
// butterflies, which must fit within a half of the polynomial.
func NewBankedUnit(t *Table, nbf int) (*BankedUnit, error) {
	if nbf < 1 || nbf&(nbf-1) != 0 || 4*nbf > t.N {
		return nil, fmt.Errorf("ntt: invalid n_bf=%d for N=%d (need power of two ≤ N/4)", nbf, t.N)
	}
	u := &BankedUnit{T: t, NBF: nbf}
	u.buildROMs()
	u.bufA = make([]uint64, t.N)
	u.bufB = make([]uint64, t.N)
	return u, nil
}

// buildROMs distributes twiddle factors to per-BFU ROM banks: in every
// issue cycle of stage s, BFU b processes butterfly j = cycle·n_bf + b and
// reads the next word of its own ROM — no shared ROM ports needed.
func (u *BankedUnit) buildROMs() {
	t := u.T
	u.roms = make([][]uint64, u.NBF)
	u.romShoup = make([][]uint64, u.NBF)
	for s := 0; s < t.LogN; s++ {
		for j := 0; j < t.N/2; j++ {
			b := j % u.NBF
			k := t.CGTwiddleIndex(s, j)
			u.roms[b] = append(u.roms[b], t.rootsFwd[k])
			u.romShoup[b] = append(u.romShoup[b], t.rootsFwdShoup[k])
		}
	}
	u.ROMDepth = len(u.roms[0])
	for _, r := range u.roms {
		if len(r) != u.ROMDepth {
			panic("ntt: uneven ROM fill")
		}
	}
}

// bankOf maps a coefficient index to its RAM bank under the round-robin
// striping of §IV.A.1: consecutive coefficients live in consecutive banks,
// so a group of 2·n_bf consecutive indices occupies every bank exactly once.
func (u *BankedUnit) bankOf(idx int) int { return idx % (2 * u.NBF) }

// Forward runs the forward transform through the banked model. It returns
// the result (bit-reversed order) and records Cycles and BankConflicts.
// The returned slice is one of the unit's two ping-pong RAM banks and is
// valid until the next transform on this unit.
func (u *BankedUnit) Forward(src []uint64) []uint64 {
	t := u.T
	if len(src) != t.N {
		panic("ntt: length mismatch")
	}
	m := t.M
	q := m.Q
	half := t.N / 2
	lanes := 2 * u.NBF // coefficients read (and written) per cycle

	cur, next := u.bufA, u.bufB
	copy(cur, src)

	u.Cycles = 0
	u.BankConflicts = 0
	romPos := make([]int, u.NBF) // per-BFU ROM read pointer

	for s := 0; s < t.LogN; s++ {
		// Up-and-down read order: alternate a low group [g·L, g·L+L) with
		// the matching high group [half+g·L, half+g·L+L). Each pair of read
		// cycles supplies inputs for 2·n_bf butterflies, which the n_bf
		// BFUs retire over those same two cycles — net n_bf butterflies per
		// cycle, (N/2·logN)/n_bf cycles total.
		for g := 0; g < half/lanes; g++ {
			lowBase := g * lanes
			u.checkCycle(lowBase, lanes)      // read cycle A: banks of the low group
			u.checkCycle(half+lowBase, lanes) // read cycle B: banks of the high group
			u.Cycles += 2                     // two read cycles issued
			// The SWAP network pairs low[i] with high[i]; butterflies
			// j = lowBase..lowBase+lanes-1 execute, each BFU b handling the
			// js with j ≡ b (mod n_bf) and popping its own twiddle ROM.
			for j := lowBase; j < lowBase+lanes; j++ {
				b := j % u.NBF
				w, wp := u.roms[b][romPos[b]], u.romShoup[b][romPos[b]]
				romPos[b]++
				wv := m.MulShoup(cur[j+half], w, wp)
				sum := cur[j] + wv
				if sum >= q {
					sum -= q
				}
				diff := cur[j] - wv
				if cur[j] < wv {
					diff += q
				}
				next[2*j], next[2*j+1] = sum, diff
			}
			// Write side: outputs [2·lowBase, 2·lowBase+2·lanes) stream out
			// in ascending order over the same two cycles.
			u.checkCycle(2*lowBase, lanes)
			u.checkCycle(2*lowBase+lanes, lanes)
		}
		cur, next = next, cur
	}
	return cur
}

// checkCycle verifies that the `count` consecutive coefficient indices
// starting at base touch each RAM bank at most once in a single cycle.
func (u *BankedUnit) checkCycle(base, count int) {
	if len(u.seen) != 2*u.NBF {
		u.seen = make([]bool, 2*u.NBF)
	}
	for i := range u.seen {
		u.seen[i] = false
	}
	for i := 0; i < count; i++ {
		b := u.bankOf(base + i)
		if u.seen[b] {
			u.BankConflicts++
		}
		u.seen[b] = true
	}
}

// VerifyROMs checks that the per-BFU ROM streams contain exactly the
// twiddles each BFU consumes in execution order, and that the total ROM
// footprint matches the paper's claim (§IV.A.2: N factors per polynomial
// size, i.e. N-1 distinct values plus the unused slot 0).
func (u *BankedUnit) VerifyROMs() error {
	t := u.T
	pos := make([]int, u.NBF)
	for s := 0; s < t.LogN; s++ {
		for j := 0; j < t.N/2; j++ {
			b := j % u.NBF
			want := t.rootsFwd[t.CGTwiddleIndex(s, j)]
			if u.roms[b][pos[b]] != want {
				return fmt.Errorf("ntt: ROM mismatch at stage %d butterfly %d (BFU %d)", s, j, b)
			}
			pos[b]++
		}
	}
	total := 0
	for _, r := range u.roms {
		total += len(r)
	}
	if total != t.N/2*t.LogN {
		return fmt.Errorf("ntt: ROM total %d, want %d", total, t.N/2*t.LogN)
	}
	return nil
}

// Inverse runs the inverse transform through the banked model: the
// mirrored constant-geometry dataflow (gather pairs (2j, 2j+1), scatter to
// (j, j+N/2)) with the same bank striping, cycle count and per-BFU
// inverse-twiddle ROMs. Results are bit-identical to Table.Inverse.
// As with Forward, the returned slice is owned by the unit and valid until
// the next transform.
func (u *BankedUnit) Inverse(src []uint64) []uint64 {
	t := u.T
	if len(src) != t.N {
		panic("ntt: length mismatch")
	}
	m := t.M
	q := m.Q
	half := t.N / 2
	lanes := 2 * u.NBF

	cur, next := u.bufA, u.bufB
	copy(cur, src)

	u.Cycles = 0
	u.BankConflicts = 0

	for s := t.LogN - 1; s >= 0; s-- {
		for g := 0; g < half/lanes; g++ {
			lowBase := g * lanes
			// Read side: two cycles of consecutive pairs (ascending order),
			// mirroring the forward write pattern.
			u.checkCycle(2*lowBase, lanes)
			u.checkCycle(2*lowBase+lanes, lanes)
			u.Cycles += 2
			for j := lowBase; j < lowBase+lanes; j++ {
				k := t.CGTwiddleIndex(s, j)
				x, y := cur[2*j], cur[2*j+1]
				sum := x + y
				if sum >= q {
					sum -= q
				}
				diff := x - y
				if x < y {
					diff += q
				}
				next[j] = sum
				next[j+half] = m.MulShoup(diff, t.rootsInv[k], t.rootsInvShoup[k])
			}
			// Write side: up-and-down order, mirroring the forward reads.
			u.checkCycle(lowBase, lanes)
			u.checkCycle(half+lowBase, lanes)
		}
		cur, next = next, cur
	}
	for i := range cur {
		cur[i] = m.MulShoup(cur[i], t.nInv, t.nInvShoup)
	}
	return cur
}
