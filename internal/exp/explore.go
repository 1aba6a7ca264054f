package exp

import (
	"fmt"
	"sort"
)

// Design-space exploration (Fig. 2b): enumerate pipeline configurations,
// keep those that place within the routing ceiling, and score them by
// HMVP throughput versus resource utilization.

// DesignPoint is one explored configuration.
type DesignPoint struct {
	Engines int
	Cfg     EngineConfig
	FreqMHz float64
	Res     Res
	MaxUtil float64 // worst single-resource utilization fraction
	RowsSec float64 // HMVP throughput on an 8192×4096 workload
	Fits    bool
	Pareto  bool
}

// Label renders the Fig.-2b style description.
func (p DesignPoint) Label() string {
	return fmt.Sprintf("9-stages, %dxPACKTWOLWES, %dxNTT, %d-PE NTT, %dx engines",
		p.Cfg.NumPack, p.Cfg.NTTPerStage, p.Cfg.NBF, p.Engines)
}

// routedFreq models place-and-route pressure: wider butterfly crossbars
// and deeper bank multiplexing degrade the achievable clock.
func routedFreq(nbf int) float64 {
	switch {
	case nbf <= 4:
		return 300
	case nbf == 8:
		return 275
	default:
		return 240
	}
}

// Explore enumerates the design space the paper sweeps in Fig. 2b around
// the published instance (pipeline split via the NTT-per-stage
// allocation, butterfly parallelism 2/4/8, one or two pack units, one to
// four engines, both viable RAM strategies) on the device. The workload
// used for scoring is a two-tile HMVP (2N×N = 8192×4096), which exercises
// both engine-level and pipeline-level parallelism.
func Explore(dev Device) []DesignPoint {
	var pts []DesignPoint
	for _, engines := range []int{1, 2, 3, 4} {
		for _, perStage := range []int{3, 6} {
			for _, nbf := range []int{2, 4, 8} {
				for _, packs := range []int{1, 2} {
					for _, strat := range []RAMStrategy{BRAMOnly, Hybrid} {
						sim := ChamConfig()
						sim.Engine.NTTPerStage, sim.Engine.NBF = perStage, nbf
						sim.Engine.NumPack, sim.Engine.Strategy = packs, strat
						sim.NumEngines, sim.FreqMHz = engines, routedFreq(nbf)
						res := FullDesign(sim.Engine, engines)
						p := DesignPoint{
							Engines: engines,
							Cfg:     sim.Engine,
							FreqMHz: sim.FreqMHz,
							Res:     res,
							MaxUtil: res.MaxUtil(dev),
							Fits:    res.FitsWithCeiling(dev, Ceiling),
							RowsSec: sim.ThroughputRowsPerSec(2*sim.N, sim.N),
						}
						pts = append(pts, p)
					}
				}
			}
		}
	}
	markPareto(pts)
	return pts
}

// markPareto flags the fitting points not dominated in
// (throughput up, utilization down).
func markPareto(pts []DesignPoint) {
	for i := range pts {
		if !pts[i].Fits {
			continue
		}
		dominated := false
		for j := range pts {
			if i == j || !pts[j].Fits {
				continue
			}
			betterPerf := pts[j].RowsSec >= pts[i].RowsSec
			betterUtil := pts[j].MaxUtil <= pts[i].MaxUtil
			strictly := pts[j].RowsSec > pts[i].RowsSec || pts[j].MaxUtil < pts[i].MaxUtil
			if betterPerf && betterUtil && strictly {
				dominated = true
				break
			}
		}
		pts[i].Pareto = !dominated
	}
}

// Frontier returns the Pareto points sorted by throughput.
func Frontier(pts []DesignPoint) []DesignPoint {
	var out []DesignPoint
	for _, p := range pts {
		if p.Pareto {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RowsSec > out[j].RowsSec })
	return out
}

// Best returns the highest-throughput fitting point (CHAM's selection
// criterion), breaking ties toward lower utilization.
func Best(pts []DesignPoint) (DesignPoint, bool) {
	var best DesignPoint
	found := false
	for _, p := range pts {
		if !p.Fits {
			continue
		}
		if !found || p.RowsSec > best.RowsSec ||
			(p.RowsSec == best.RowsSec && p.MaxUtil < best.MaxUtil) {
			best = p
			found = true
		}
	}
	return best, found
}
