package core

import (
	"sync"
	"testing"
	"time"

	"cham/internal/obs"
	"cham/internal/testutil"
	"cham/internal/vec"
)

// TestPrepareMatchesSlowPath: every prepared row and companion word equals
// EncodeRow → Lift → NTT → ShoupPrecompPoly composed from the allocating
// public functions — single rows (packing scale 1) and padded tiles (scale
// 2^-ℓ), whole and ragged last chunks, two row tiles — on the host's
// kernels and on the Go loops.
func TestPrepareMatchesSlowPath(t *testing.T) {
	run := func(t *testing.T) {
		p := testParams(t, 64)
		n := p.R.N
		rng := testutil.NewRand(t)
		ev, err := NewEvaluator(p, rng, p.KeyGen(rng), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range [][2]int{{1, n}, {1, 7}, {2, 2*n + 1}, {5, n + n/2 + 3}, {n + 3, 3 * n}} {
			m, cols := shape[0], shape[1]
			A := testutil.Matrix(rng, m, cols, p.T.Q)
			pm, err := ev.Prepare(A)
			if err != nil {
				t.Fatalf("%dx%d: %v", m, cols, err)
			}
			for ti, tile := range pm.tiles {
				base, _, mPad := pm.tileBounds(ti)
				scale := p.InvPow2(log2(mPad))
				if (scale == 1) != (mPad == 1) {
					t.Fatalf("%dx%d tile %d: scale %d at mPad %d", m, cols, ti, scale, mPad)
				}
				for i := range tile.rowNTT {
					for c := range tile.rowNTT[i] {
						lo, hi := c*n, (c+1)*n
						if hi > cols {
							hi = cols
						}
						want := p.Lift(p.EncodeRow(A[base+i][lo:hi], scale), p.R.Levels())
						p.R.NTT(want)
						if !tile.rowNTT[i][c].Equal(want) {
							t.Fatalf("%dx%d tile %d row %d chunk %d: prepared row differs from the slow path", m, cols, ti, i, c)
						}
						for l, row := range p.R.ShoupPrecompPoly(want) {
							for j, w := range row {
								if tile.rowShoup[i][c][l][j] != w {
									t.Fatalf("%dx%d tile %d row %d chunk %d limb %d: companion word %d differs", m, cols, ti, i, c, l, j)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Run("dispatched", run)
	t.Run("generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		run(t)
	})
}

// stageTotals is a StageSink that adds up what each stage was charged.
type stageTotals struct {
	mu sync.Mutex
	d  [obs.NumStages]time.Duration
}

func (s *stageTotals) StageAdd(stage int, d time.Duration) {
	s.mu.Lock()
	s.d[stage] += d
	s.mu.Unlock()
}

func (s *stageTotals) ExemplarLabel() string { return "" }

// TestPrepareStagesCoverSpan: the ledger of a Prepare adds up. Building a
// 32×4096 tile at N=4096 under a recording sink, encode + lift + ntt are
// at least 90 % of the wall clock around it — no sweep (the companion pass
// least of all) runs uncharged.
func TestPrepareStagesCoverSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 key generation")
	}
	p := testParams(t, 4096)
	rng := testutil.NewRand(t)
	ev, err := NewEvaluator(p, rng, p.KeyGen(rng), 32)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 32, 4096, p.T.Q)
	pm, err := ev.Prepare(A) // the shape, and a warm scratch pool
	if err != nil {
		t.Fatal(err)
	}
	var sink stageTotals
	var clk obs.StageClock
	clk.Attach(&sink)
	t0 := time.Now()
	clk.Start()
	rs := ev.getRowScratch()
	tile := ev.buildTile(pm, A, 0, rs, &clk)
	ev.putRowScratch(rs)
	clk.Flush()
	span := time.Since(t0)
	if !tile.rowNTT[31][0].Equal(pm.tiles[0].rowNTT[31][0]) {
		t.Fatal("rebuilt tile differs")
	}
	charged := sink.d[obs.StageEncode] + sink.d[obs.StageLift] + sink.d[obs.StageNTT]
	for stage, d := range sink.d {
		if d != 0 && stage != obs.StageEncode && stage != obs.StageLift && stage != obs.StageNTT {
			t.Errorf("Prepare charged %v to stage %s", d, obs.StageNames[stage])
		}
	}
	if charged < span*9/10 {
		t.Errorf("encode %v + lift %v + ntt %v = %v of a %v Prepare span (%.0f %%), want ≥ 90 %%",
			sink.d[obs.StageEncode], sink.d[obs.StageLift], sink.d[obs.StageNTT], charged, span,
			100*float64(charged)/float64(span))
	}
	t.Logf("span %v: encode %v, lift %v, ntt %v", span, sink.d[obs.StageEncode], sink.d[obs.StageLift], sink.d[obs.StageNTT])
}

// TestApplyStagesCoverSpan is TestPrepareStagesCoverSpan's apply-side twin:
// a 32×4096 tile applied at N=4096 on one worker under a recording sink.
// The stage sums are at least 90 % of the wall clock around ApplyTiles,
// and the merge and flush stages the lwe fold times are each charged.
func TestApplyStagesCoverSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 key generation")
	}
	p := testParams(t, 4096)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, 32)
	if err != nil {
		t.Fatal(err)
	}
	ev.Workers = 1
	pm, err := ev.Prepare(testutil.Matrix(rng, 32, 4096, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}
	ctV := EncryptVector(p, rng, sk, testutil.Vector(rng, 4096, p.T.Q))
	out := pm.NewResult().Packed
	if err := pm.ApplyTiles(out, nil, ctV, nil); err != nil { // warm the scratch pools
		t.Fatal(err)
	}
	var sink stageTotals
	t0 := time.Now()
	if err := pm.ApplyTiles(out, nil, ctV, &sink); err != nil {
		t.Fatal(err)
	}
	span := time.Since(t0)
	var charged time.Duration
	for _, d := range sink.d {
		charged += d
	}
	for _, stage := range []int{obs.StagePack, obs.StagePackModDown, obs.StageDecompose, obs.StageKeySwitch, obs.StageINTT} {
		if sink.d[stage] <= 0 {
			t.Errorf("apply charged nothing to stage %s", obs.StageNames[stage])
		}
	}
	share := 100 * float64(charged) / float64(span)
	if charged < span*9/10 {
		t.Errorf("stages add up to %v of a %v apply span (%.1f %%), want ≥ 90 %%", charged, span, share)
	}
	t.Logf("span %v, stages %v (%.1f %%)", span, charged, share)
	for stage, d := range sink.d {
		if d > 0 {
			t.Logf("  %-10s %v", obs.StageNames[stage], d)
		}
	}
}
