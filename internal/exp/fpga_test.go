package exp

import (
	"math"
	"testing"
)

func TestResArithmetic(t *testing.T) {
	a := Res{LUT: 1, FF: 2, BRAM: 3, URAM: 4, DSP: 5}
	b := a.Scale(3)
	if b != (Res{3, 6, 9, 12, 15}) {
		t.Fatalf("Scale: %v", b)
	}
	if a.Add(b) != (Res{4, 8, 12, 16, 20}) {
		t.Fatalf("Add: %v", a.Add(b))
	}
}

func TestFits(t *testing.T) {
	small := Res{LUT: 100, DSP: 10}
	if !small.FitsWithCeiling(VU9P, 0.75) {
		t.Error("small design should fit")
	}
	huge := Res{LUT: 2_000_000}
	if huge.FitsWithCeiling(VU9P, 1) {
		t.Error("oversized design should not fit")
	}
	// Ceiling check: exactly 80% of LUTs fails a 75% ceiling.
	r := Res{LUT: int(0.8 * float64(VU9P.Total.LUT))}
	if r.FitsWithCeiling(VU9P, 0.75) {
		t.Error("80% LUT passed 75% ceiling")
	}
	if !r.FitsWithCeiling(VU9P, 0.85) {
		t.Error("80% LUT failed 85% ceiling")
	}
}

// TestTable3Calibration pins the model to the paper's Table III numbers.
func TestTable3Calibration(t *testing.T) {
	if err := CheckTable3Calibration(); err != nil {
		t.Fatal(err)
	}
	rows := Table3(4096, 4)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	close := func(a, b float64) bool { return math.Abs(a-b) < 0.01 }
	// Published ATP ratios.
	if !close(rows[1].ATPLUT, 1.96) {
		t.Errorf("hybrid ATP %.2f, want 1.96", rows[1].ATPLUT)
	}
	if !close(rows[2].ATPLUT, 2.78) {
		t.Errorf("dRAM ATP %.2f, want 2.78", rows[2].ATPLUT)
	}
	if !close(rows[3].ATPLUT, 6.71) {
		t.Errorf("HEAX ATP %.2f, want 6.71", rows[3].ATPLUT)
	}
	if !close(rows[4].ATPMults, 7.36) {
		t.Errorf("F1 ATP %.2f, want 7.36", rows[4].ATPMults)
	}
	// CHAM rows all share the baseline time-multiplier product.
	for i := 0; i < 3; i++ {
		if !close(rows[i].ATPMults, 1.0) {
			t.Errorf("row %d ATPMults %.2f", i, rows[i].ATPMults)
		}
	}
}

// TestTable2Calibration pins the engine composition to Table II.
func TestTable2Calibration(t *testing.T) {
	if err := CheckTable2Calibration(); err != nil {
		t.Fatal(err)
	}
	rows, total, _ := Table2(ChamConfig().Engine, 2)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Res != (Res{LUT: 259318, FF: 89894, BRAM: 640, URAM: 294, DSP: 986}) {
		t.Errorf("engine 0: %v", rows[0].Res)
	}
	if rows[1].Res != (Res{LUT: 259502, FF: 90043, BRAM: 640, URAM: 294, DSP: 986}) {
		t.Errorf("engine 1: %v", rows[1].Res)
	}
	if !total.FitsWithCeiling(VU9P, 0.76) {
		t.Error("published design should sit below the ~75% ceiling")
	}
}

func TestNTTUnitScaling(t *testing.T) {
	// More BFUs: more logic, fewer cycles; ATP stays flat.
	for _, nbf := range []int{2, 4, 8, 16} {
		r := NTTUnit(4096, nbf, BRAMOnly)
		if r.LUT <= 0 || r.DSP != 2*nbf {
			t.Errorf("nbf=%d: %v", nbf, r)
		}
		if NTTLatency(4096, nbf)*nbf != 4096/2*12 {
			t.Errorf("nbf=%d: latency×nbf should be constant", nbf)
		}
	}
	// Strategies trade BRAM for LUT monotonically.
	b := NTTUnit(4096, 4, BRAMOnly)
	h := NTTUnit(4096, 4, Hybrid)
	d := NTTUnit(4096, 4, DRAMOnly)
	if !(b.LUT < h.LUT && h.LUT < d.LUT) {
		t.Error("LUT should increase as memories move to dRAM")
	}
	if !(b.BRAM > h.BRAM && h.BRAM > d.BRAM) {
		t.Error("BRAM should decrease as memories move to dRAM")
	}
}

// TestNTTThroughputClaim checks §V-B.1: 60 NTT units at 300 MHz give the
// throughput regime the paper reports against HEAX and the GPU.
func TestNTTThroughputClaim(t *testing.T) {
	cham := 60 * 300e6 / float64(NTTLatency(4096, 4)) // transforms per second
	if cham <= 0 {
		t.Fatal("throughput must be positive")
	}
	// Per unit: 300e6/6144 = 48.8k transforms/s; 60 units ≈ 2.93M. The
	// paper quotes 195k ops/s where an "op" bundles the 15 limb-transforms
	// of one augmented pt×ct multiply (3 fwd + 6 fwd/6 inv): 2.93M/15 ≈ 195k.
	perOp := 15.0
	if got := cham / perOp; got < 180e3 || got > 210e3 {
		t.Errorf("composite NTT ops/s = %.0f, want ≈ 195k", got)
	}
	// HEAX at its published 117k and the GPU at 45k must trail CHAM.
	if cham/perOp <= 117e3 {
		t.Error("CHAM must beat HEAX's 117k ops/s")
	}
}

func TestDevicePeaks(t *testing.T) {
	if VU9P.PeakDSPOps() != 6840*300e6 {
		t.Error("VU9P peak DSP ops wrong")
	}
	if U200.DDRGBps != 77 {
		t.Error("U200 bandwidth wrong")
	}
}

func TestEngineScaling(t *testing.T) {
	base := Engine(ChamConfig().Engine)
	cfg8 := ChamConfig().Engine
	cfg8.NBF = 8
	wide := Engine(cfg8)
	if wide.LUT <= base.LUT || wide.DSP <= base.DSP {
		t.Error("8-BFU engine should be larger")
	}
	cfg2 := ChamConfig().Engine
	cfg2.NTTPerStage = 3
	if Engine(cfg2).BRAM >= base.BRAM {
		t.Error("fewer NTT units should use less BRAM")
	}
	// Fig. 2b's second Pareto point: 1 engine with 8-BFU NTTs fits; and
	// 4 engines at default config must NOT fit the 75% ceiling.
	if !FullDesign(cfg8, 1).FitsWithCeiling(VU9P, 0.76) {
		t.Error("1×8-BFU engine should fit")
	}
	if FullDesign(ChamConfig().Engine, 4).FitsWithCeiling(VU9P, 0.76) {
		t.Error("4 engines should not fit")
	}
}

func TestStageAllocAndStrings(t *testing.T) {
	cfg := ChamConfig().Engine
	fwd, inv, pack := cfg.StageAlloc()
	if fwd != 6 || inv != 12 || pack != 12 {
		t.Errorf("StageAlloc = %d/%d/%d, want 6/12/12", fwd, inv, pack)
	}
	if fwd+inv+pack != cfg.TotalNTT() {
		t.Error("stage allocations must sum to the engine total")
	}
	names := map[RAMStrategy]string{
		BRAMOnly: "BRAM only", Hybrid: "BRAM+dRAM", DRAMOnly: "dRAM only",
		RAMStrategy(9): "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("String(%d) = %q", s, s.String())
		}
	}
}

func TestMaxUtil(t *testing.T) {
	r := Res{LUT: VU9P.Total.LUT / 2, BRAM: VU9P.Total.BRAM * 9 / 10}
	if u := r.MaxUtil(VU9P); u < 0.89 || u > 0.91 {
		t.Errorf("MaxUtil = %f, want ~0.9 (BRAM-dominated)", u)
	}
}
