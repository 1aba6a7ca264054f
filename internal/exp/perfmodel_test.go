package exp

import "testing"

// TestKeySwitchAnchor pins §V-B.1: CHAM's key-switch throughput is 105×
// the CPU baseline.
func TestKeySwitchAnchor(t *testing.T) {
	cpu := Xeon6130()
	cham := ChamConfig()
	ratio := cpu.KeySwitchSeconds(cham) * cham.KeySwitchOpsPerSec()
	if ratio < 100 || ratio > 110 {
		t.Errorf("key-switch speed-up %.1f, want ≈ 105", ratio)
	}
}

// TestGPUThroughputAnchor pins the 4.5× HMVP throughput edge over the
// V100 (Fig. 6).
func TestGPUThroughputAnchor(t *testing.T) {
	gpu := TeslaV100()
	cham := ChamConfig()
	m, n := 8192, 4096
	chamRows := cham.ThroughputRowsPerSec(m, n)
	gpuRows := float64(m) / gpu.HMVPSeconds(cham, m, n)
	ratio := chamRows / gpuRows
	if ratio < 4.0 || ratio > 5.0 {
		t.Errorf("throughput ratio %.2f, want ≈ 4.5", ratio)
	}
}

// TestGPULatencyAnchor pins Fig. 8's latency comparison: CHAM's HMVP
// latency is 0.3×–0.7× of the GPU's across matrix sizes.
func TestGPULatencyAnchor(t *testing.T) {
	gpu := TeslaV100()
	cham := ChamConfig()
	for _, m := range []int{256, 1024, 4096} {
		for _, n := range []int{256, 4096} {
			chamSec := cham.SimulateHMVP(m, n).Seconds(cham.FreqMHz)
			gpuSec := gpu.HMVPSeconds(cham, m, n)
			ratio := chamSec / gpuSec
			if ratio < 0.25 || ratio > 0.75 {
				t.Errorf("m=%d n=%d: latency ratio %.2f outside the paper's 0.3-0.7", m, n, ratio)
			}
		}
	}
}

// TestCPUSpeedupAnchor pins Fig. 8's >10× against the BFV CPU baseline,
// growing with the row count.
func TestCPUSpeedupAnchor(t *testing.T) {
	cpu := Xeon6130()
	cham := ChamConfig()
	prev := 0.0
	for _, m := range []int{256, 1024, 4096} {
		chamSec := cham.SimulateHMVP(m, 4096).Seconds(cham.FreqMHz)
		ratio := cpu.HMVPSeconds(cham, m, 4096) / chamSec
		if m == 4096 && ratio < 10 {
			t.Errorf("m=%d: CPU speed-up %.1f, want > 10", m, ratio)
		}
		if ratio < prev*0.95 {
			t.Errorf("speed-up should grow with m: %.1f after %.1f", ratio, prev)
		}
		prev = ratio
	}
}

// TestPaillierSpeedupAnchor pins §V-B.3's 30×–1800× matvec range across
// the HeteroLR shapes (gradient matrices are features×samples at the
// small end, square at the large end).
func TestPaillierSpeedupAnchor(t *testing.T) {
	pl := FATEPaillier()
	cham := ChamConfig()
	shapes := []struct {
		m, n   int
		lo, hi float64
	}{
		{30, 569, 25, 100},       // breast-cancer-scale gradient
		{1024, 1024, 100, 300},   // mid-size
		{8192, 8192, 1500, 2100}, // the 1800× headline shape
	}
	prev := 0.0
	for _, s := range shapes {
		chamSec := cham.SimulateHMVP(s.m, s.n).Seconds(cham.FreqMHz)
		ratio := pl.MatVecSeconds(s.m, s.n) / chamSec
		if ratio < s.lo || ratio > s.hi {
			t.Errorf("%dx%d: Paillier speed-up %.0f outside [%.0f, %.0f]", s.m, s.n, ratio, s.lo, s.hi)
		}
		if ratio <= prev {
			t.Errorf("%dx%d: speed-up should grow with size", s.m, s.n)
		}
		prev = ratio
	}
}

// TestStepModelsArePositiveAndOrdered: encryption/decryption/add costs must
// be positive everywhere and Paillier must be the slowest per element.
func TestStepModelsArePositiveAndOrdered(t *testing.T) {
	p := ChamConfig()
	cpu := Xeon6130()
	gpu := TeslaV100()
	pl := FATEPaillier()
	for _, count := range []int{100, 4096, 100000} {
		vals := []float64{
			cpu.EncryptVectorSeconds(p, count), cpu.DecryptVectorSeconds(p, count),
			cpu.AddVecSeconds(p, count),
			gpu.EncryptVectorSeconds(p, count), gpu.DecryptVectorSeconds(p, count),
			gpu.AddVecSeconds(p, count),
			pl.EncryptVectorSeconds(count), pl.DecryptVectorSeconds(count),
			pl.AddVecSeconds(count),
		}
		for i, v := range vals {
			if v <= 0 {
				t.Fatalf("count=%d: cost %d not positive", count, i)
			}
		}
		// Per-element Paillier encryption must dwarf BFV's batched one.
		if pl.EncryptVectorSeconds(count) < 10*cpu.EncryptVectorSeconds(p, count) {
			t.Errorf("count=%d: Paillier encryption should be far slower", count)
		}
	}
}
