package exp

import "fmt"

// Compute-engine composition (Table II). A CHAM compute engine bundles the
// DOTPRODUCT pipeline (NTT units + polynomial processing units), one
// PACKTWOLWES unit with its reduce buffer, key-switch key caches, and the
// per-thread I/O buffers of the heterogeneous system (Fig. 1b).
//
// Component LUT/FF/DSP splits are calibrated so that the default
// configuration (6 NTT units, 4-BFU NTT, 1 pack unit) reproduces the
// published engine totals exactly; each component then scales with the
// design parameter that drives it, which is what the DSE (Fig. 2b) varies.

// EngineConfig selects the per-engine design parameters. NTTPerStage is
// the Fig.-2b "k×NTT" label: the stage-1 (plaintext forward transform)
// allocation. The macro-pipeline balances stage service times by giving
// the inverse-transform stage and the PACKTWOLWES key switch twice that
// many units each (demand ratio 3:6:9 transforms per row, §III-B), so an
// engine carries 5·NTTPerStage NTT units in total — 30 at the published
// point, 60 per two-engine device (§V-B.1's "60 NTT units").
type EngineConfig struct {
	N           int         // ring degree
	NTTPerStage int         // stage-1 NTT units (paper: 6)
	NBF         int         // butterflies per NTT unit (paper: 4)
	NumPack     int         // PACKTWOLWES units (paper: 1)
	Strategy    RAMStrategy // NTT memory strategy
}

// TotalNTT returns the engine's NTT unit count across all stages.
func (c EngineConfig) TotalNTT() int { return 5 * c.NTTPerStage }

// StageAlloc returns the per-stage NTT unit split (forward, inverse, pack).
func (c EngineConfig) StageAlloc() (fwd, inv, pack int) {
	return c.NTTPerStage, 2 * c.NTTPerStage, 2 * c.NTTPerStage
}

// Calibrated component budgets at the published engine (ChamConfig().Engine).
var (
	ppuBase   = Res{LUT: 70000, FF: 16000, BRAM: 48, DSP: 482}
	packBase  = Res{LUT: 60000, FF: 10000, BRAM: 60, URAM: 150, DSP: 264}
	reduceBuf = Res{BRAM: 24}
	ioBuffers = Res{BRAM: 88, URAM: 144}
	engineCtl = Res{LUT: 29598, FF: 4074}
)

// scaleFrac scales r by num/den, rounding to nearest.
func scaleFrac(r Res, num, den int) Res {
	f := func(x int) int { return (x*num + den/2) / den }
	return Res{f(r.LUT), f(r.FF), f(r.BRAM), f(r.URAM), f(r.DSP)}
}

// Engine returns the resources of one compute engine under cfg.
func Engine(cfg EngineConfig) Res {
	nttBlock := NTTUnit(cfg.N, cfg.NBF, cfg.Strategy).Scale(cfg.TotalNTT())
	// The PPU array's parallelism tracks the butterfly parallelism so the
	// macro-pipeline stages stay balanced (§III-B: P_A = k·P_B).
	ppu := scaleFrac(ppuBase, cfg.NBF, 4)
	pack := packBase.Scale(cfg.NumPack)
	return nttBlock.Add(ppu).Add(pack).Add(reduceBuf).Add(ioBuffers).Add(engineCtl)
}

// Platform is the static Vitis shell plus the in-house DMA/RAS logic —
// constant regardless of the engine configuration.
func Platform() Res {
	return Res{LUT: 234066, FF: 302670, BRAM: 278, URAM: 7, DSP: 14}
}

// placementDelta reflects the small per-instance variance between the two
// placed engine copies in the published bitstream (engine 1 closed timing
// with slightly more logic replication).
var placementDelta = Res{LUT: 184, FF: 149}

// Table2Row is one row of the utilization table.
type Table2Row struct {
	Module string
	Res    Res
}

// Table2 reproduces the paper's Table II for the given number of engines
// at the given config (the paper: two engines, default config, on VU9P):
// one row per engine, then the platform, and the full design's total.
func Table2(cfg EngineConfig, numEngines int) (rows []Table2Row, total Res, pct map[string]float64) {
	for i := 0; i < numEngines; i++ {
		r := Engine(cfg)
		if i%2 == 1 {
			r = r.Add(placementDelta)
		}
		rows = append(rows, Table2Row{Module: fmt.Sprintf("Compute Engine %d", i), Res: r})
		total = total.Add(r)
	}
	rows = append(rows, Table2Row{Module: "Platform", Res: Platform()})
	total = total.Add(Platform())
	return rows, total, total.Util(VU9P)
}

// FullDesign returns the total footprint of a CHAM instance with the given
// engine count and config, including the platform.
func FullDesign(cfg EngineConfig, numEngines int) Res {
	_, total, _ := Table2(cfg, numEngines)
	return total
}

// CheckTable2Calibration verifies the composed design reproduces the
// published totals.
func CheckTable2Calibration() error {
	c := ChamConfig()
	eng := Engine(c.Engine)
	want := Res{LUT: 259318, FF: 89894, BRAM: 640, URAM: 294, DSP: 986}
	if eng != want {
		return fmt.Errorf("exp: engine = %v, want %v", eng, want)
	}
	_, total, pct := Table2(c.Engine, c.NumEngines)
	wantTotal := Res{LUT: 752886, FF: 482607, BRAM: 1558, URAM: 595, DSP: 1986}
	if total != wantTotal {
		return fmt.Errorf("exp: total = %v, want %v", total, wantTotal)
	}
	approx := func(got, want float64) bool { d := got - want; return d < 0.005 && d > -0.005 }
	for k, w := range map[string]float64{"LUT": 63.68, "FF": 20.41, "BRAM": 72.13, "URAM": 61.98, "DSP": 29.04} {
		if !approx(pct[k], w) {
			return fmt.Errorf("exp: %s utilization %.2f%%, want %.2f%%", k, pct[k], w)
		}
	}
	return nil
}
