package exp

import (
	"strings"
	"testing"
)

// TestRooflineShape reproduces Fig. 2a's key observation: standalone NTT
// and key switch are memory-bound (intensity far below the ridge) while
// the fused HMVP is compute-bound.
func TestRooflineShape(t *testing.T) {
	pts := Roofline(U200)
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	byName := map[string]RooflinePoint{}
	for _, p := range pts {
		byName[p.Kernel] = p
	}
	r := Ridge(U200)
	if byName["NTT"].Bound != "memory" {
		t.Errorf("NTT should be memory-bound (intensity %.2f vs ridge %.2f)",
			byName["NTT"].Intensity, r)
	}
	if byName["KeySwitch"].Bound != "memory" {
		t.Errorf("KeySwitch should be memory-bound (intensity %.2f vs ridge %.2f)",
			byName["KeySwitch"].Intensity, r)
	}
	for name, p := range byName {
		if strings.HasPrefix(name, "HMVP") && p.Bound != "compute" {
			t.Errorf("%s should be compute-bound (intensity %.2f vs ridge %.2f)",
				name, p.Intensity, r)
		}
		if p.Attainable <= 0 || p.Intensity <= 0 {
			t.Errorf("%s: degenerate point %+v", name, p)
		}
	}
	// Fused HMVP intensity must exceed the operators by a large factor.
	if byName["HMVP 4096x4096"].Intensity < 20*byName["NTT"].Intensity {
		t.Error("HMVP should be far more compute-intense than NTT")
	}
	// Larger m amortizes the vector: intensity grows with m.
	if byName["HMVP 4096x4096"].Intensity <= byName["HMVP 256x4096"].Intensity {
		t.Error("intensity should grow with matrix rows")
	}
}

// TestExploreFindsPublishedOptima: the two Fig. 2b optimal points —
// (6×NTT, 4-PE, 2 engines) and (6×NTT, 8-PE, 1 engine) — must both sit on
// the Pareto frontier, and the first must be the overall best (it is what
// CHAM shipped).
func TestExploreFindsPublishedOptima(t *testing.T) {
	pts := Explore(VU9P)
	if len(pts) < 90 {
		t.Fatalf("only %d points explored", len(pts))
	}
	find := func(engines, perStage, nbf, packs int) *DesignPoint {
		for i := range pts {
			c := pts[i].Cfg
			if pts[i].Engines == engines && c.NTTPerStage == perStage &&
				c.NBF == nbf && c.NumPack == packs && c.Strategy == BRAMOnly {
				return &pts[i]
			}
		}
		return nil
	}
	a := find(2, 6, 4, 1) // CHAM
	b := find(1, 6, 8, 1)
	if a == nil || b == nil {
		t.Fatal("published points not enumerated")
	}
	if !a.Fits || !b.Fits {
		t.Fatalf("published points must fit: a=%v b=%v", a.Fits, b.Fits)
	}
	if !a.Pareto {
		t.Errorf("CHAM's point not Pareto: %.0f rows/s at %.1f%% util", a.RowsSec, 100*a.MaxUtil)
	}
	if !b.Pareto {
		t.Errorf("8-PE single-engine point not Pareto: %.0f rows/s at %.1f%% util", b.RowsSec, 100*b.MaxUtil)
	}
	best, ok := Best(pts)
	if !ok {
		t.Fatal("no fitting design")
	}
	if best.Engines != 2 || best.Cfg.NBF != 4 || best.Cfg.NTTPerStage != 6 {
		t.Errorf("best design is %s, want CHAM's 2x(6xNTT,4-PE)", best.Label())
	}
}

// TestExploreRejectsOversized: monster configurations must be filtered by
// the 75% ceiling.
func TestExploreRejectsOversized(t *testing.T) {
	pts := Explore(VU9P)
	sawUnfit := false
	for _, p := range pts {
		if p.Engines == 4 && p.Cfg.NTTPerStage == 6 && p.Cfg.NBF >= 4 {
			if p.Fits {
				t.Errorf("4 default-size engines cannot fit: %v", p.Res)
			}
			sawUnfit = true
		}
		if p.Pareto && !p.Fits {
			t.Error("non-fitting point marked Pareto")
		}
	}
	if !sawUnfit {
		t.Error("expected oversized points in the enumeration")
	}
}

// TestFrontierSorted: the frontier is sorted by throughput and non-empty.
func TestFrontierSorted(t *testing.T) {
	f := Frontier(Explore(VU9P))
	if len(f) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(f); i++ {
		if f[i].RowsSec > f[i-1].RowsSec {
			t.Fatal("frontier not sorted")
		}
	}
	// Frontier should be a small subset.
	if len(f) > 40 {
		t.Errorf("frontier suspiciously large: %d points", len(f))
	}
}

func TestLabel(t *testing.T) {
	pts := Explore(VU9P)
	want := "9-stages, 1xPACKTWOLWES, 6xNTT, 4-PE NTT, 2x engines"
	for _, p := range pts {
		if p.Label() == want {
			return
		}
	}
	t.Errorf("no point labelled %q", want)
}
