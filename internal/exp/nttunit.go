package exp

import (
	"fmt"

	"cham/internal/ntt"
)

// NTT functional-unit resource model (Table III). Storage needs follow
// from the constant-geometry dataflow of §IV-A: per-BFU twiddle ROM banks
// (Fig. 4), a 2·n_bf-bank ping-pong coefficient buffer, and I/O staging.
// Datapath LUT costs are calibrated at the published (N=4096, n_bf=4)
// design point and scale with n_bf.

// RAMStrategy selects where the NTT unit's memories live — the three rows
// of Table III.
type RAMStrategy int

const (
	// BRAMOnly puts the twiddle ROMs and local buffer in block RAM.
	BRAMOnly RAMStrategy = iota
	// Hybrid keeps the local buffer in BRAM but moves the twiddle ROMs to
	// LUT-based distributed RAM.
	Hybrid
	// DRAMOnly moves both into distributed RAM, freeing all block RAM.
	DRAMOnly
)

func (s RAMStrategy) String() string {
	switch s {
	case BRAMOnly:
		return "BRAM only"
	case Hybrid:
		return "BRAM+dRAM"
	case DRAMOnly:
		return "dRAM only"
	}
	return "unknown"
}

const (
	bram18  = 18432 // bits per half BRAM36
	lutBits = 64    // bits per LUT used as distributed RAM (RAM64X1)

	// Calibrated datapath constants (fit to Table III at N=4096, n_bf=4).
	lutPerBFU   = 660 // shift-add modular multiplier + butterfly add/sub
	lutNTTFixed = 684 // control FSM, address generation, SWAP network
	dspPerBFU   = 2   // the low-Hamming-weight moduli leave only the 27x18 core products on DSPs
	ffPerLUT    = 0.6 // pipeline register density of the datapath

	// Distributed-RAM addressing overhead, calibrated: per-bank read
	// multiplexers for the twiddle ROMs, and the shared-staging trick that
	// lets the dRAM buffer store only one ping-pong half.
	dramROMMuxPerBank = 236
	dramBufFixed      = 500
)

// romBits returns the twiddle ROM footprint: N factors of one ciphertext
// limb's width (§IV-A.2 "the size of twiddle factors is equal to the size
// of a polynomial").
func romBits(n int) int { return n * limbBits[0] }

// romBlocks returns the BRAM36 blocks of one unit's nbf twiddle ROM banks.
func romBlocks(n, nbf int) int { return bramBlocks(nbf, romBits(n)/nbf) }

// romLUTs returns the LUTs one unit spends holding its twiddle ROMs in
// distributed RAM: the ROM bits plus each bank's read multiplexer.
func romLUTs(n, nbf int) int { return romBits(n)/lutBits + dramROMMuxPerBank*nbf }

// bufBits returns the ping-pong coefficient buffer footprint.
func bufBits(n int) int { return 2 * n * limbBits[0] }

// bramBlocks maps a set of equally-sized banks to BRAM36 blocks, packing
// two 18Kb halves per block.
func bramBlocks(banks, bitsPerBank int) int {
	halves := banks * ((bitsPerBank + bram18 - 1) / bram18)
	return (halves + 1) / 2
}

// NTTUnit returns the resources of one NTT module with n_bf butterfly
// units at degree n under the given RAM strategy.
func NTTUnit(n, nbf int, s RAMStrategy) Res {
	r := Res{
		LUT: lutPerBFU*nbf + lutNTTFixed,
		DSP: dspPerBFU * nbf,
	}

	bufBanks := 2 * 2 * nbf // ping-pong × 2·n_bf read/write banks
	bufPerBank := bufBits(n) / bufBanks

	switch s {
	case BRAMOnly:
		r.BRAM = romBlocks(n, nbf) + bramBlocks(bufBanks, bufPerBank) + 2 // +I/O staging
	case Hybrid:
		r.BRAM = bramBlocks(bufBanks, bufPerBank) - 2 // staging shares buffer blocks
		r.LUT += romLUTs(n, nbf)
	case DRAMOnly:
		r.LUT += romLUTs(n, nbf)
		r.LUT += bufBits(n)/(2*lutBits) + dramBufFixed
	}
	r.FF = int(ffPerLUT * float64(r.LUT))
	return r
}

// NTTLatency returns the cycle latency of one transform:
// (N/2·log2 N)/n_bf.
func NTTLatency(n, nbf int) int { return ntt.CGCycles(n, nbf) }

// Table3Row is one comparison row of Table III.
type Table3Row struct {
	Name    string
	Latency int // cycles
	Mults   int // parallel modular multipliers
	LUT     int
	BRAM    int
	// Normalised area-time products (CHAM BRAM-only = 1.0).
	ATPMults float64 // latency × multipliers
	ATPLUT   float64 // latency × LUT
}

// Table3 reproduces the paper's Table III: the three CHAM RAM strategies
// plus the published HEAX and F1 NTT designs.
func Table3(n, nbf int) []Table3Row {
	base := NTTUnit(n, nbf, BRAMOnly)
	baseLat := NTTLatency(n, nbf)
	rows := []Table3Row{
		{Name: "CHAM (BRAM only)", Latency: baseLat, Mults: nbf, LUT: base.LUT, BRAM: base.BRAM},
		{Name: "CHAM (BRAM+dRAM)", Latency: baseLat, Mults: nbf,
			LUT: NTTUnit(n, nbf, Hybrid).LUT, BRAM: NTTUnit(n, nbf, Hybrid).BRAM},
		{Name: "CHAM (dRAM only)", Latency: baseLat, Mults: nbf,
			LUT: NTTUnit(n, nbf, DRAMOnly).LUT, BRAM: NTTUnit(n, nbf, DRAMOnly).BRAM},
		// Published comparators (HEAX on Intel FPGAs with 8-input LUTs and
		// 20Kb BRAMs; F1 is an ASIC — LUT/BRAM not applicable).
		{Name: "HEAX", Latency: 6144, Mults: 4, LUT: 22316, BRAM: 11},
		{Name: "F1", Latency: 202, Mults: 896},
	}
	baseATPm := float64(rows[0].Latency * rows[0].Mults)
	baseATPl := float64(rows[0].Latency * rows[0].LUT)
	for i := range rows {
		rows[i].ATPMults = float64(rows[i].Latency*rows[i].Mults) / baseATPm
		if rows[i].LUT > 0 {
			rows[i].ATPLUT = float64(rows[i].Latency*rows[i].LUT) / baseATPl
		}
	}
	return rows
}

// CheckTable3Calibration verifies the model reproduces the published
// numbers at the production design point; the table3 experiment renders
// its verdict.
func CheckTable3Calibration() error {
	c := ChamConfig()
	want := []struct {
		s   RAMStrategy
		lut int
		br  int
	}{
		{BRAMOnly, 3324, 14},
		{Hybrid, 6508, 6},
		{DRAMOnly, 9248, 0},
	}
	for _, w := range want {
		got := NTTUnit(c.N, c.Engine.NBF, w.s)
		if got.LUT != w.lut || got.BRAM != w.br {
			return fmt.Errorf("exp: %v = LUT %d BRAM %d, want LUT %d BRAM %d",
				w.s, got.LUT, got.BRAM, w.lut, w.br)
		}
	}
	if lat := c.TransformCycles(); lat != 6144 {
		return fmt.Errorf("exp: latency %d, want 6144", lat)
	}
	return nil
}
