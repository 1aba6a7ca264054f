package exp

import "fmt"

// Floorplanning (Fig. 5, §V-A). The paper reports that the initial
// floorplan "utilizes too much BRAMs that imposes pressure on place and
// routing", and that the fix was to "replace some BRAMs by URAM and
// LUTRAM to make the utilization rate of all of them below 75%". This
// file models that decision procedure: start from the BRAM-heavy initial
// design, then apply conversion moves until every resource class clears
// the ceiling — landing exactly on the published Table II numbers.

// Ceiling is the paper's place-and-route utilization limit: every
// resource class kept at or below 75%.
const Ceiling = 0.75

// uramBRAMEquiv is the storage ratio: one URAM block (288 Kb) holds as
// much as eight BRAM36 blocks.
const uramBRAMEquiv = 8

// Floorplan tracks a design's resource assignment during rebalancing.
type Floorplan struct {
	Device  Device
	Total   Res
	History []string
	// remaining conversion candidates
	stagingBRAM int // BRAM blocks of I/O staging convertible to URAM
	romBRAM     int // BRAM blocks of twiddle ROMs convertible to LUTRAM
	romLUTCost  int // LUTs per converted ROM block (its share of romLUTs)
}

// InitialFloorplan reconstructs the pre-fix design: a quarter of the
// per-thread I/O staging that the final design keeps in URAM initially
// lived in BRAM (the largest fraction that still maps onto the device at
// all), and all twiddle ROMs in BRAM.
func InitialFloorplan(d Device, cfg EngineConfig, engines int) *Floorplan {
	total := FullDesign(cfg, engines)
	// Undo part of the staging URAM conversion at the 8x block
	// equivalence.
	stagingURAM := ioBuffers.URAM * engines / 4
	total.URAM -= stagingURAM
	total.BRAM += stagingURAM * uramBRAMEquiv

	// The twiddle ROMs are sized as NTTUnit sizes them: a converted block
	// costs its share of the unit's distributed-RAM ROM.
	blocks := romBlocks(cfg.N, cfg.NBF)
	fp := &Floorplan{
		Device:      d,
		Total:       total,
		stagingBRAM: stagingURAM * uramBRAMEquiv,
		romBRAM:     blocks * cfg.TotalNTT() * engines,
		romLUTCost:  ceilDiv(romLUTs(cfg.N, cfg.NBF), blocks),
	}
	fp.History = append(fp.History,
		fmt.Sprintf("initial: %s", total))
	return fp
}

// utilOf returns per-class utilizations.
func (fp *Floorplan) utilOf() map[string]float64 { return fp.Total.Util(fp.Device) }

// Over returns the resource classes above the ceiling.
func (fp *Floorplan) Over() []string {
	var out []string
	for _, k := range []string{"LUT", "FF", "BRAM", "URAM", "DSP"} {
		if fp.utilOf()[k] > 100*Ceiling {
			out = append(out, k)
		}
	}
	return out
}

// Fits reports whether every class clears the ceiling.
func (fp *Floorplan) Fits() bool { return len(fp.Over()) == 0 }

// Rebalance applies the paper's two moves until the plan fits:
//
//  1. move I/O staging from BRAM to URAM (bulk storage, 8:1 blocks);
//  2. move twiddle ROMs from BRAM to LUTRAM (costs LUTs).
//
// It refuses moves that would push LUT or URAM over the ceiling, and
// errors if the candidates run out first.
func (fp *Floorplan) Rebalance() error {
	cap := fp.Device.Total
	for !fp.Fits() {
		over := fp.Over()
		if len(over) != 1 || over[0] != "BRAM" {
			return fmt.Errorf("exp: cannot rebalance congestion on %v", over)
		}
		switch {
		case fp.stagingBRAM >= uramBRAMEquiv &&
			float64(fp.Total.URAM+1) <= Ceiling*float64(cap.URAM):
			fp.Total.BRAM -= uramBRAMEquiv
			fp.Total.URAM++
			fp.stagingBRAM -= uramBRAMEquiv
			fp.History = append(fp.History, "move 8 staging BRAM blocks to 1 URAM")
		case fp.romBRAM >= 1 &&
			float64(fp.Total.LUT+fp.romLUTCost) <= Ceiling*float64(cap.LUT):
			fp.Total.BRAM--
			fp.Total.LUT += fp.romLUTCost
			fp.romBRAM--
			fp.History = append(fp.History, "move 1 twiddle-ROM BRAM block to LUTRAM")
		default:
			return fmt.Errorf("exp: out of conversion candidates at %s", fp.Total)
		}
	}
	fp.History = append(fp.History, fmt.Sprintf("final: %s", fp.Total))
	return nil
}
