package exp

import (
	"strings"
	"testing"
)

// TestFloorplanRebalance reproduces §V-A: the initial BRAM-heavy plan
// exceeds the 75% ceiling; converting staging to URAM (and, if needed,
// twiddle ROMs to LUTRAM) brings every class under it.
func TestFloorplanRebalance(t *testing.T) {
	fp := InitialFloorplan(VU9P, ChamConfig().Engine, 2)
	if fp.Fits() {
		t.Fatal("initial floorplan should exceed the ceiling")
	}
	over := fp.Over()
	if len(over) != 1 || over[0] != "BRAM" {
		t.Fatalf("initial congestion on %v, want BRAM (the paper's account)", over)
	}
	if fp.Total.BRAM <= FullDesign(ChamConfig().Engine, 2).BRAM {
		t.Error("initial plan should use more BRAM than the final design")
	}
	if err := fp.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if !fp.Fits() {
		t.Fatal("rebalanced plan still over ceiling")
	}
	for k, v := range fp.utilOf() {
		if v > 75 {
			t.Errorf("%s at %.2f%% after rebalance", k, v)
		}
	}
	if len(fp.History) < 3 {
		t.Error("no rebalancing moves recorded")
	}
	moves := strings.Join(fp.History, "; ")
	if !strings.Contains(moves, "URAM") {
		t.Error("expected staging-to-URAM moves")
	}
}

// TestFloorplanImpossible: a device with no URAM headroom and no ROM
// candidates must fail loudly rather than loop.
func TestFloorplanImpossible(t *testing.T) {
	tiny := VU9P
	tiny.Total.URAM = 600 // barely above the design's 595: no headroom
	fp := InitialFloorplan(tiny, ChamConfig().Engine, 2)
	fp.romBRAM = 0 // and no ROM conversion candidates either
	if err := fp.Rebalance(); err == nil {
		t.Fatal("impossible rebalance reported success")
	}
}

// TestFloorplanROMFallback: when URAM is exhausted, the rebalancer falls
// back to LUTRAM conversions of the twiddle ROMs.
func TestFloorplanROMFallback(t *testing.T) {
	constrained := VU9P
	constrained.Total.URAM = 764 // room for only ~50 staging moves
	fp := InitialFloorplan(constrained, ChamConfig().Engine, 2)
	if err := fp.Rebalance(); err != nil {
		t.Fatalf("ROM fallback failed: %v", err)
	}
	moves := strings.Join(fp.History, "; ")
	if !strings.Contains(moves, "LUTRAM") {
		t.Error("expected twiddle-ROM-to-LUTRAM moves under URAM pressure")
	}
}

// TestFloorplanNonBRAMCongestion: congestion on a class the moves cannot
// fix is reported.
func TestFloorplanNonBRAMCongestion(t *testing.T) {
	small := VU9P
	small.Total.DSP = 2000 // 1986 used: 99%
	fp := InitialFloorplan(small, ChamConfig().Engine, 2)
	err := fp.Rebalance()
	if err == nil || !strings.Contains(err.Error(), "DSP") {
		t.Fatalf("DSP congestion not reported: %v", err)
	}
}

// TestFloorplanROMCostFollowsEngine: converting every twiddle-ROM block of
// one NTT unit to LUTRAM costs what NTTUnit charges for moving that unit's
// ROMs into distributed RAM, at every butterfly count the exploration
// sweeps — the floorplan sizes its ROMs from the engine config, as
// NTTUnit does.
func TestFloorplanROMCostFollowsEngine(t *testing.T) {
	for _, nbf := range []int{2, 4, 8} {
		cfg := ChamConfig().Engine
		cfg.NBF = nbf
		fp := InitialFloorplan(VU9P, cfg, 1)
		perUnit := fp.romBRAM / cfg.TotalNTT()
		got := perUnit * fp.romLUTCost
		want := NTTUnit(cfg.N, nbf, Hybrid).LUT - NTTUnit(cfg.N, nbf, BRAMOnly).LUT
		if got != want {
			t.Errorf("NBF=%d: %d ROM blocks × %d LUTs = %d, NTTUnit's Hybrid-minus-BRAM-only delta is %d",
				nbf, perUnit, fp.romLUTCost, got, want)
		}
	}
}
