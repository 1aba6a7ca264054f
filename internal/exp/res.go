package exp

import "fmt"

// FPGA resources of the CHAM implementation: a device catalog (Xilinx
// VU9P / Alveo U200), per-module resource estimators, and the
// compositions that reproduce the paper's Table II (full-design
// utilization) and Table III (single-NTT comparison).
//
// Storage-derived quantities (BRAM/URAM/LUTRAM counts) follow from bit
// widths and bank structure; pure-logic quantities (LUT/FF/DSP of the
// datapaths) are calibrated against the published design point and scale
// linearly with the unit counts, which is what the design-space
// exploration (Explore) varies.

// Res is a vector of FPGA resources.
type Res struct {
	LUT  int
	FF   int
	BRAM int // BRAM36 blocks
	URAM int
	DSP  int
}

// Add returns r + o.
func (r Res) Add(o Res) Res {
	return Res{r.LUT + o.LUT, r.FF + o.FF, r.BRAM + o.BRAM, r.URAM + o.URAM, r.DSP + o.DSP}
}

// Scale returns r scaled by k.
func (r Res) Scale(k int) Res {
	return Res{r.LUT * k, r.FF * k, r.BRAM * k, r.URAM * k, r.DSP * k}
}

// FitsWithCeiling reports whether every resource stays at or below the
// given utilization fraction — the paper's 75% place-and-route ceiling.
func (r Res) FitsWithCeiling(d Device, frac float64) bool {
	t := d.Total
	ok := func(used, total int) bool { return float64(used) <= frac*float64(total) }
	return ok(r.LUT, t.LUT) && ok(r.FF, t.FF) && ok(r.BRAM, t.BRAM) && ok(r.URAM, t.URAM) && ok(r.DSP, t.DSP)
}

// Util returns per-resource utilization percentages on the device.
func (r Res) Util(d Device) map[string]float64 {
	t := d.Total
	pct := func(u, tot int) float64 {
		if tot == 0 {
			return 0
		}
		return 100 * float64(u) / float64(tot)
	}
	return map[string]float64{
		"LUT":  pct(r.LUT, t.LUT),
		"FF":   pct(r.FF, t.FF),
		"BRAM": pct(r.BRAM, t.BRAM),
		"URAM": pct(r.URAM, t.URAM),
		"DSP":  pct(r.DSP, t.DSP),
	}
}

// MaxUtil returns the highest single-resource utilization fraction.
func (r Res) MaxUtil(d Device) float64 {
	max := 0.0
	for _, v := range r.Util(d) {
		if v > max {
			max = v
		}
	}
	return max / 100
}

func (r Res) String() string {
	return fmt.Sprintf("LUT=%d FF=%d BRAM=%d URAM=%d DSP=%d", r.LUT, r.FF, r.BRAM, r.URAM, r.DSP)
}

// Device describes an FPGA card.
type Device struct {
	Total   Res
	FreqMHz float64 // achieved kernel clock
	DDRGBps float64 // aggregate DRAM bandwidth
}

// PeakDSPOps returns the peak 27x18 multiply throughput in ops/s at the
// device clock — the roofline compute ceiling (Fig. 2a).
func (d Device) PeakDSPOps() float64 {
	return float64(d.Total.DSP) * d.FreqMHz * 1e6
}

// VU9P is the Xilinx Virtex UltraScale+ VU9P, CHAM's production part.
var VU9P = Device{
	Total:   Res{LUT: 1182240, FF: 2364480, BRAM: 2160, URAM: 960, DSP: 6840},
	FreqMHz: 300,
	DDRGBps: 77,
}

// U200 is the Alveo U200 prototyping card: VU9P silicon behind the Vitis
// shell, 4×DDR4-2400 at 77 GB/s.
var U200 = VU9P
