package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"cham/internal/obs"
	"cham/internal/ring"
	"cham/internal/testutil"
	"cham/internal/vec"
)

// TestPrepareMatchesSlowPath: every prepared pair equals EncodeRow → Lift
// → NTT composed from the allocating public functions — a full pair is
// ring.MonomialSplitNTT of its two rows' slow-path transforms at X^{N/2},
// a half-empty pair (odd row padding, and a one-row tile's row) is its
// even row's — over single rows (packing scale 1) and padded tiles
// (scale 2^-ℓ), whole and ragged last chunks, two row tiles, on the host's
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
				tl := pm.tile(ti)
				base, rows, mPad := tl.Base, tl.Rows, tl.Pad
				scale := p.InvPow2(log2(mPad))
				if (scale == 1) != (mPad == 1) {
					t.Fatalf("%dx%d tile %d: scale %d at mPad %d", m, cols, ti, scale, mPad)
				}
				if want := max(mPad/2, 1); len(tile.pairs) != want {
					t.Fatalf("%dx%d tile %d: %d pairs, want %d", m, cols, ti, len(tile.pairs), want)
				}
				slow := func(i, c int) *ring.Poly {
					lo, hi := c*n, min((c+1)*n, cols)
					row := p.Lift(p.EncodeRow(A[base+i][lo:hi], scale), p.R.Levels())
					p.R.NTT(row)
					return row
				}
				for i, pr := range tile.pairs {
					odd := i + mPad/2
					if full := mPad > 1 && odd < rows; full != (pr.minus != nil) {
						t.Fatalf("%dx%d tile %d pair %d: half-empty %v, want %v", m, cols, ti, i, pr.minus == nil, !full)
					}
					for c := range pr.plus {
						wantPlus := slow(i, c)
						if pr.minus != nil {
							wantMinus := p.R.NewPoly(p.R.Levels())
							p.R.MonomialSplitNTT(wantPlus, wantMinus, wantPlus, slow(odd, c), n/2)
							if !pr.minus[c].Equal(wantMinus) {
								t.Fatalf("%dx%d tile %d pair %d chunk %d: P− differs from the slow path's split", m, cols, ti, i, c)
							}
						}
						if !pr.plus[c].Equal(wantPlus) {
							t.Fatalf("%dx%d tile %d pair %d chunk %d: P+ differs from the slow path", m, cols, ti, i, c)
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

// TestPreparedTileOneSlab: the resident form is values only, and pairing
// the rows grows nothing. A tile of the design point (256×4096), of the
// fresh-weights shape (32×16384) and of one row past a power of two
// (33×4096: one full pair, 31 half-empty) at N=4096 holds exactly
// rows·chunks·limbs·N words, and building it allocates little beyond one
// slab of that size.
func TestPreparedTileOneSlab(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 tiles")
	}
	p := testParams(t, 4096)
	n, full := p.R.N, p.R.Levels()
	rng := testutil.NewRand(t)
	ev := &Evaluator{P: p} // a tile needs no packing keys
	for _, shape := range [][2]int{{256, 4096}, {32, 16384}, {33, 4096}} {
		m, cols := shape[0], shape[1]
		A := testutil.Matrix(rng, m, cols, p.T.Q)
		pm := &PreparedMatrix{ev: ev, m: m, cols: cols, chunks: (cols + n - 1) / n, tiles: make([]*preparedTile, 1)}
		var clk obs.StageClock
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tile := ev.buildTile(pm, A, 0, &clk)
		runtime.ReadMemStats(&after)
		want := m * pm.chunks * full * n
		words := 0
		for i, pr := range tile.pairs {
			for _, half := range [][]*ring.Poly{pr.plus, pr.minus} {
				for c, poly := range half {
					for l, limb := range poly.Coeffs {
						if len(limb) != n {
							t.Fatalf("%dx%d pair %d chunk %d limb %d: %d words, want %d", m, cols, i, c, l, len(limb), n)
						}
						words += len(limb)
					}
				}
			}
		}
		if words != want {
			t.Errorf("%dx%d: tile holds %d words, want rows·chunks·limbs·N = %d", m, cols, words, want)
		}
		if got, slab := after.TotalAlloc-before.TotalAlloc, uint64(8*want); got > slab+slab/100 {
			t.Errorf("%dx%d: building the tile allocated %d bytes, want at most its %d-byte slab + 1 %%", m, cols, got, slab)
		}
	}
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
// 32×4096 tile at N=4096 under a recording sink, encode (a row's encode
// and its lift) + ntt + pack (the row pairs' monomial splits) are at least
// 90 % of the wall clock around it — no sweep runs uncharged.
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
	clk.Skip()
	tile := ev.buildTile(pm, A, 0, &clk)
	clk.Flush()
	span := time.Since(t0)
	if !tile.pairs[15].minus[0].Equal(pm.tiles[0].pairs[15].minus[0]) {
		t.Fatal("rebuilt tile differs")
	}
	charged := sink.d[obs.StageEncode] + sink.d[obs.StageNTT] + sink.d[obs.StagePack]
	for stage, d := range sink.d {
		if d != 0 && stage != obs.StageEncode && stage != obs.StageNTT && stage != obs.StagePack {
			t.Errorf("Prepare charged %v to stage %s", d, obs.StageNames[stage])
		}
	}
	if sink.d[obs.StagePack] <= 0 {
		t.Error("Prepare charged nothing to pack: the pairs' splits went uncharged")
	}
	if charged < span*9/10 {
		t.Errorf("encode %v + ntt %v + pack %v = %v of a %v Prepare span (%.0f %%), want ≥ 90 %%",
			sink.d[obs.StageEncode], sink.d[obs.StageNTT], sink.d[obs.StagePack], charged, span,
			100*float64(charged)/float64(span))
	}
	t.Logf("span %v: encode %v, ntt %v, pack %v", span, sink.d[obs.StageEncode], sink.d[obs.StageNTT], sink.d[obs.StagePack])
}

// TestApplyStagesCoverSpan is TestPrepareStagesCoverSpan's apply-side twin:
// a 32×4096 and a 256×4096 (the design point) tile applied at N=4096 on
// one worker under a recording sink. The stage sums are at least 90 % and
// 97 % of the wall clock around ApplyTiles, the merge and flush stages
// the lwe fold times are each charged, and every stage's
// cham_hmvp_stage_seconds sum moved by exactly what the sink was charged:
// the histograms and the trace are fed by the same flushes.
func TestApplyStagesCoverSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4096 key generation")
	}
	p := testParams(t, 4096)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	var hists [obs.NumStages]*obs.Histogram
	for i, name := range obs.StageNames {
		hists[i] = obs.GetHistogram("cham_hmvp_stage_seconds", "", nil, "stage", name)
	}
	for _, tc := range []struct{ m, minShare int }{{32, 90}, {256, 97}} {
		ev, err := NewEvaluator(p, rng, sk, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		ev.Workers = 1
		pm, err := ev.Prepare(testutil.Matrix(rng, tc.m, 4096, p.T.Q))
		if err != nil {
			t.Fatal(err)
		}
		ctV := EncryptVector(p, rng, sk, testutil.Vector(rng, 4096, p.T.Q))
		out := pm.NewResult().Packed
		if err := pm.ApplyTiles(out, nil, ctV, nil); err != nil { // warm the scratch pools
			t.Fatal(err)
		}
		var before [obs.NumStages]float64
		for i, h := range hists {
			before[i] = h.Sum()
		}
		var sink stageTotals
		t0 := time.Now()
		if err := pm.ApplyTiles(out, nil, ctV, &sink); err != nil {
			t.Fatal(err)
		}
		span := time.Since(t0)
		var charged time.Duration
		for stage, d := range sink.d {
			charged += d
			if got := hists[stage].Sum() - before[stage]; math.Abs(got-d.Seconds()) > 1e-7 {
				t.Errorf("%dx4096: stage %s histogram sum moved %.9f s, sink charged %v",
					tc.m, obs.StageNames[stage], got, d)
			}
		}
		for _, stage := range []int{obs.StagePack, obs.StagePackModDown, obs.StageDecompose, obs.StageKeySwitch, obs.StageINTT} {
			if sink.d[stage] <= 0 {
				t.Errorf("%dx4096: apply charged nothing to stage %s", tc.m, obs.StageNames[stage])
			}
		}
		share := 100 * float64(charged) / float64(span)
		if share < float64(tc.minShare) {
			t.Errorf("%dx4096: stages add up to %v of a %v apply span (%.1f %%), want ≥ %d %%",
				tc.m, charged, span, share, tc.minShare)
		}
		t.Logf("%dx4096: span %v, stages %v (%.1f %%)", tc.m, span, charged, share)
		for stage, d := range sink.d {
			if d > 0 {
				t.Logf("  %-10s %v", obs.StageNames[stage], d)
			}
		}
	}
}
