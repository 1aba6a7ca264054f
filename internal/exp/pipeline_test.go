package exp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPublishedThroughputClaims pins the §V-B.1 numbers: 65k key
// switches/s, 195k composite NTT ops/s from 60 units, 2.93M raw
// transforms/s.
func TestPublishedThroughputClaims(t *testing.T) {
	c := ChamConfig()
	if got := c.KeySwitchOpsPerSec(); math.Abs(got-65104) > 200 {
		t.Errorf("key-switch throughput %.0f ops/s, want ≈ 65k", got)
	}
	if got := c.NTTOpsPerSec(); math.Abs(got-195312) > 500 {
		t.Errorf("NTT throughput %.0f ops/s, want ≈ 195k", got)
	}
	if units := c.NumEngines * c.Engine.TotalNTT(); units != 60 {
		t.Errorf("device has %d NTT units, want 60", units)
	}
	if c.TransformCycles() != 6144 {
		t.Errorf("transform latency %d, want 6144", c.TransformCycles())
	}
}

func TestDotAndMergeCycles(t *testing.T) {
	c := ChamConfig()
	if got := c.DotRowCycles(1); got != 3072 {
		t.Errorf("dot row cycles %d, want 3072 (stage-balanced)", got)
	}
	if got := c.MergeCycles(); got != 9216 {
		t.Errorf("merge cycles %d, want 9216", got)
	}
	// More chunks -> more forward transforms per row.
	if c.DotRowCycles(4) <= c.DotRowCycles(1) {
		t.Error("chunked rows should cost more")
	}
	// A second pack unit does not help an NTT-bound merge...
	c2 := c
	c2.Engine.NumPack = 2
	if c2.MergeCycles() != c.MergeCycles() {
		t.Error("NumPack=2 should not change an NTT-bound merge")
	}
	// ...but does help once the PPU side binds (very wide NTTs).
	c3 := c
	c3.Engine.NBF = 16 // transform latency shrinks; PPU lanes widen less
	c3.Engine.NTTPerStage = 24
	one := c3.MergeCycles()
	c3.Engine.NumPack = 2
	if c3.MergeCycles() >= one {
		t.Error("NumPack=2 should speed up a PPU-bound merge")
	}
}

func TestSimulateTileAccounting(t *testing.T) {
	c := ChamConfig()
	rep := c.SimulateTile(4096, 1)
	if rep.Merges != 4095 {
		t.Errorf("merges = %d, want 4095 (the paper's reduction count)", rep.Merges)
	}
	if rep.DotCycles != 4096*int64(c.DotRowCycles(1)) {
		t.Errorf("dot cycles %d", rep.DotCycles)
	}
	if rep.PackCycles != 4095*int64(c.MergeCycles()) {
		t.Errorf("pack cycles %d", rep.PackCycles)
	}
	// The pack stage is the bottleneck (9216 > 3072), so the makespan is
	// close to the serialized pack work and stalls must be significant.
	if rep.TotalCycles < rep.PackCycles {
		t.Error("makespan below pack work")
	}
	if rep.StallCycles == 0 {
		t.Error("expected reduce-buffer preemption stalls")
	}
	slack := float64(rep.TotalCycles-rep.PackCycles) / float64(rep.TotalCycles)
	if slack > 0.1 {
		t.Errorf("pack-bound tile should be ≥90%% pack-busy (slack %.2f)", slack)
	}
}

func TestSimulateTilePadding(t *testing.T) {
	c := ChamConfig()
	rep := c.SimulateTile(5, 1)
	if rep.Merges != 7 {
		t.Errorf("merges = %d, want 7 (pad 5 -> 8)", rep.Merges)
	}
	one := c.SimulateTile(1, 1)
	if one.Merges != 0 || one.PackCycles != 0 {
		t.Errorf("single row should not pack: %+v", one)
	}
}

func TestSimulateTileGuards(t *testing.T) {
	c := ChamConfig()
	for _, rows := range []int{0, c.N + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rows=%d accepted", rows)
				}
			}()
			c.SimulateTile(rows, 1)
		}()
	}
	c.ReduceBufferSlots = 1
	defer func() {
		if recover() == nil {
			t.Error("1-slot reduce buffer accepted")
		}
	}()
	c.SimulateTile(4, 1)
}

// TestBufferPressure: a tiny reduce buffer must stall the front more than
// a large one, without changing the amount of useful work.
func TestBufferPressure(t *testing.T) {
	small := ChamConfig()
	small.ReduceBufferSlots = 2
	big := ChamConfig()
	big.ReduceBufferSlots = 1024
	rs := small.SimulateTile(1024, 1)
	rb := big.SimulateTile(1024, 1)
	if rs.DotCycles != rb.DotCycles || rs.PackCycles != rb.PackCycles {
		t.Error("work should not depend on buffer size")
	}
	if rs.TotalCycles < rb.TotalCycles {
		t.Error("smaller buffer cannot be faster")
	}
	if rs.StallCycles <= rb.StallCycles {
		t.Error("smaller buffer should stall more")
	}
}

// TestEngineScalingHMVP: two engines double throughput on two tiles.
func TestEngineScalingHMVP(t *testing.T) {
	c := ChamConfig()
	two := c.SimulateHMVP(8192, 4096) // two tiles on two engines
	c1 := c
	c1.NumEngines = 1
	one := c1.SimulateHMVP(8192, 4096)
	if ratio := float64(one.TotalCycles) / float64(two.TotalCycles); math.Abs(ratio-2) > 0.01 {
		t.Errorf("engine scaling ratio %.2f, want 2", ratio)
	}
}

// TestThroughputShape reproduces the qualitative Fig. 6 claims: throughput
// rises near-linearly-then-saturates with m, and collapses when columns
// spill over N (the paper's n ≥ m aggregation penalty).
func TestThroughputShape(t *testing.T) {
	c := ChamConfig()
	t256 := c.ThroughputRowsPerSec(256, 4096)
	t1024 := c.ThroughputRowsPerSec(1024, 4096)
	t4096 := c.ThroughputRowsPerSec(4096, 4096)
	if !(t256 < t1024 && t1024 <= t4096*1.01) {
		t.Errorf("throughput not increasing with m: %f %f %f", t256, t1024, t4096)
	}
	// Column spill: 8192 columns need 2 chunks per row.
	narrow := c.ThroughputRowsPerSec(4096, 4096)
	wide := c.ThroughputRowsPerSec(4096, 8192)
	if wide >= narrow {
		t.Errorf("column spill should reduce throughput: %f vs %f", wide, narrow)
	}
	// But by much less than 2x: aggregation only adds forward transforms.
	if wide < narrow*0.5 {
		t.Errorf("column penalty too harsh: %f vs %f", wide, narrow)
	}
}

// TestAblationParetoPoints compares the paper's two Fig. 2b optima:
// 2 engines with 4-PE NTTs versus 1 engine with 8-PE NTTs. On a
// multi-tile workload their device throughput must be equivalent (that is
// what makes both Pareto-optimal); on a single tile the 8-PE engine wins
// on latency because the 2-engine instance cannot split one packing tree.
func TestAblationParetoPoints(t *testing.T) {
	a := ChamConfig() // 2 engines, 4-PE
	b := ChamConfig()
	b.NumEngines = 1
	b.Engine.NBF = 8

	ta := a.ThroughputRowsPerSec(8192, 4096)
	tb := b.ThroughputRowsPerSec(8192, 4096)
	if ratio := ta / tb; math.Abs(ratio-1) > 0.05 {
		t.Errorf("multi-tile Pareto points diverge: %.0f vs %.0f rows/s (ratio %.2f)", ta, tb, ratio)
	}

	la := a.SimulateHMVP(4096, 4096).TotalCycles
	lb := b.SimulateHMVP(4096, 4096).TotalCycles
	if lb >= la {
		t.Errorf("8-PE single engine should win single-tile latency: %d vs %d", lb, la)
	}
}

// TestPipelineMonotonicity property-tests the simulator's sanity
// invariants: more rows never take fewer cycles, more engines never hurt,
// wider NTTs never hurt, and extra chunks never help.
func TestPipelineMonotonicity(t *testing.T) {
	base := ChamConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m1 := 1 + rng.Intn(4096)
		m2 := m1 + 1 + rng.Intn(4096-1)
		if m2 > 4096 {
			m2 = 4096
		}
		if m2 <= m1 {
			return true
		}
		c1 := base.SimulateTile(m1, 1).TotalCycles
		c2 := base.SimulateTile(m2, 1).TotalCycles
		if c2 < c1 {
			return false
		}
		// Chunks only add work.
		if base.SimulateTile(m1, 2).TotalCycles < c1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	one := base
	one.NumEngines = 1
	for _, m := range []int{512, 4096, 8192, 12288} {
		if one.SimulateHMVP(m, 4096).TotalCycles < base.SimulateHMVP(m, 4096).TotalCycles {
			t.Errorf("m=%d: fewer engines finished faster", m)
		}
	}
	wide := base
	wide.Engine.NBF = 8
	for _, m := range []int{512, 4096} {
		if wide.SimulateTile(m, 1).TotalCycles > base.SimulateTile(m, 1).TotalCycles {
			t.Errorf("m=%d: wider butterflies slowed the tile at equal clock", m)
		}
	}
}

// TestSimulateHMVPZeroAndHugeCols: degenerate column counts are clamped.
func TestSimulateHMVPColsEdge(t *testing.T) {
	c := ChamConfig()
	if c.SimulateHMVP(16, 0).Chunks != 1 {
		t.Error("cols=0 should clamp to one chunk")
	}
	if c.SimulateHMVP(16, 3*4096).Chunks != 3 {
		t.Error("3N cols should be 3 chunks")
	}
}
