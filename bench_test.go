package cham

// One benchmark per paper table and figure, plus ablation benchmarks for
// the design choices called out in DESIGN.md. Model-derived quantities
// (device throughput, speed-ups) are attached via b.ReportMetric; the
// Software* benchmarks measure this repository's own CPU implementation —
// the functional baseline the paper's CPU numbers correspond to.

import (
	"fmt"
	"math/rand"
	"testing"

	"cham/internal/core"
	"cham/internal/dse"
	"cham/internal/exp"
	"cham/internal/fpga"
	"cham/internal/hetero"
	"cham/internal/lwe"
	"cham/internal/mod"
	"cham/internal/ntt"
	"cham/internal/perfmodel"
	"cham/internal/pipeline"
	"cham/internal/ring"
	"cham/internal/testutil"
	"cham/internal/vec"
)

// runExp executes a registered experiment once per iteration.
func runExp(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("experiment %q missing", id)
	}
	var tables int
	for i := 0; i < b.N; i++ {
		tables = len(e.Run())
	}
	b.ReportMetric(float64(tables), "tables")
}

// --- Table II: resource utilization ---

func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := fpga.CheckTable2Calibration(); err != nil {
			b.Fatal(err)
		}
	}
	_, total, _ := fpga.Table2(fpga.ChamEngineConfig(), 2)
	b.ReportMetric(float64(total.LUT), "LUT")
	b.ReportMetric(float64(total.BRAM), "BRAM")
}

// --- Table III: single-NTT comparison ---

func BenchmarkTable3NTT(b *testing.B) {
	var rows []fpga.Table3Row
	for i := 0; i < b.N; i++ {
		rows = fpga.Table3(4096, 4)
	}
	b.ReportMetric(float64(rows[0].Latency), "cycles")
	b.ReportMetric(rows[3].ATPLUT, "HEAX-ATP")
}

// --- Fig. 2a: roofline ---

func BenchmarkFig2aRoofline(b *testing.B) {
	var pts []dse.RooflinePoint
	for i := 0; i < b.N; i++ {
		pts = dse.Roofline(fpga.U200)
	}
	b.ReportMetric(pts[len(pts)-1].Intensity, "HMVP-ops/B")
}

// --- Fig. 2b: design-space exploration ---

func BenchmarkFig2bDSE(b *testing.B) {
	var best dse.DesignPoint
	for i := 0; i < b.N; i++ {
		pts := dse.Explore(fpga.VU9P)
		best, _ = dse.Best(pts)
	}
	b.ReportMetric(best.RowsSec, "best-rows/s")
}

// --- Fig. 6: HMVP throughput ---

func BenchmarkFig6Throughput(b *testing.B) {
	runExp(b, "fig6")
	cfg := pipeline.ChamConfig()
	b.ReportMetric(cfg.ThroughputRowsPerSec(8192, 4096), "rows/s")
}

// --- Fig. 7a/7b: HeteroLR ---

func BenchmarkFig7HeteroLR(b *testing.B) {
	runExp(b, "fig7ab")
}

// --- Fig. 7c: Beaver triples ---

func BenchmarkFig7cBeaver(b *testing.B) {
	runExp(b, "fig7c")
}

// --- Fig. 8: HMVP latency ---

func BenchmarkFig8HMVP(b *testing.B) {
	runExp(b, "fig8")
	cpu := perfmodel.Xeon6130()
	p := perfmodel.ChamParams()
	cham := pipeline.ChamConfig().SimulateHMVP(4096, 4096).Seconds(300)
	b.ReportMetric(cpu.HMVPSeconds(p, 4096, 4096)/cham, "speedup-vs-cpu")
}

// --- §V-B.1: key-switch throughput ---

func BenchmarkKeySwitch(b *testing.B) {
	cfg := pipeline.ChamConfig()
	var ops float64
	for i := 0; i < b.N; i++ {
		ops = cfg.KeySwitchOpsPerSec()
	}
	b.ReportMetric(ops, "cham-ks/s")
	b.ReportMetric(cfg.NTTOpsPerSec(), "cham-ntt-ops/s")
}

// --- Headline ---

func BenchmarkHeadline(b *testing.B) {
	runExp(b, "headline")
}

// --- Software baseline measurements (this repo's own CPU implementation) ---

func benchParams(b *testing.B, n int) Params {
	b.Helper()
	p, err := NewParams(n)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkSoftwareNTT4096(b *testing.B) {
	b.ReportAllocs()
	t := ntt.MustTable(4096, mod.ChamQ0)
	a := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = rng.Uint64() % mod.ChamQ0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ForwardLazy(a)
		t.InverseLazy(a)
	}
}

func BenchmarkSoftwareKeySwitch(b *testing.B) {
	b.ReportAllocs()
	p := benchParams(b, 4096)
	rng := rand.New(rand.NewSource(2))
	sk := p.KeyGen(rng)
	swk := p.SwitchingKeyGen(rng, sk, sk.Value)
	ct := p.EncryptZeroSym(rng, sk, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.KeySwitch(ct, swk)
	}
}

func BenchmarkSoftwareHMVP(b *testing.B) {
	b.ReportAllocs()
	p := benchParams(b, 4096)
	rng := rand.New(rand.NewSource(3))
	sk := p.KeyGen(rng)
	const m = 8
	ev, err := NewEvaluator(p, rng, sk, m)
	if err != nil {
		b.Fatal(err)
	}
	A := make([][]uint64, m)
	for i := range A {
		A[i] = make([]uint64, 4096)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % p.T.Q
		}
	}
	v := make([]uint64, 4096)
	for j := range v {
		v[j] = rng.Uint64() % p.T.Q
	}
	ctV := EncryptVector(p, rng, sk, v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MatVec(A, ctV); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m), "rows/op")
}

// BenchmarkPreparedMatVec separates the HMVP's one-time per-matrix work
// (encode + lift + forward NTT of every row) from the per-vector pipeline:
// "cold" pays Prepare on every iteration, "warm" reuses one PreparedMatrix
// and a resident Result, which after warm-up runs allocation-free.
func BenchmarkPreparedMatVec(b *testing.B) {
	p := benchParams(b, 4096)
	rng := rand.New(rand.NewSource(7))
	sk := p.KeyGen(rng)
	const m = 8
	ev, err := NewEvaluator(p, rng, sk, m)
	if err != nil {
		b.Fatal(err)
	}
	A := make([][]uint64, m)
	for i := range A {
		A[i] = make([]uint64, 4096)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % p.T.Q
		}
	}
	v := make([]uint64, 4096)
	for j := range v {
		v[j] = rng.Uint64() % p.T.Q
	}
	ctV := EncryptVector(p, rng, sk, v)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pm, err := ev.Prepare(A)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pm.Apply(ctV); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		pm, err := ev.Prepare(A)
		if err != nil {
			b.Fatal(err)
		}
		res := pm.NewResult()
		if err := pm.ApplyInto(res, ctV); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pm.ApplyInto(res, ctV); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSoftwareEncrypt(b *testing.B) {
	b.ReportAllocs()
	p := benchParams(b, 4096)
	rng := rand.New(rand.NewSource(4))
	sk := p.KeyGen(rng)
	pt := p.NewPlaintext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Encrypt(rng, sk, pt, 3)
	}
}

// BenchmarkSoftwarePrepare times the per-matrix half of the HMVP at the
// design point and at the benchmark's fresh-weights shape.
func BenchmarkSoftwarePrepare(b *testing.B) {
	p := benchParams(b, 4096)
	rng := rand.New(rand.NewSource(8))
	sk := p.KeyGen(rng)
	for _, shape := range [][2]int{{256, 4096}, {32, 16384}} {
		rows, cols := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			b.ReportAllocs()
			ev, err := NewEvaluator(p, rng, sk, rows)
			if err != nil {
				b.Fatal(err)
			}
			ev.Workers = 1
			A := testutil.Matrix(rng, rows, cols, p.T.Q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Prepare(A); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSoftwareDecrypt times reading one packed result tile back.
func BenchmarkSoftwareDecrypt(b *testing.B) {
	b.ReportAllocs()
	p := benchParams(b, 4096)
	rng := rand.New(rand.NewSource(9))
	sk := p.KeyGen(rng)
	res := &Result{M: 32, N: 4096, Packed: []*Ciphertext{p.Encrypt(rng, sk, p.NewPlaintext(), p.NormalLevels)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DecryptResult(p, res, sk)
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationNTTDataflow: the production in-place CT transform vs the
// constant-geometry ping-pong vs the cycle-checked banked model.
func BenchmarkAblationNTTDataflow(b *testing.B) {
	t := ntt.MustTable(4096, mod.ChamQ0)
	a := make([]uint64, 4096)
	dst := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(5))
	for i := range a {
		a[i] = rng.Uint64() % mod.ChamQ0
	}
	b.Run("cooley-tukey", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.ForwardLazy(a)
		}
	})
	b.Run("constant-geometry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.ForwardCG(dst, a)
		}
	})
	b.Run("banked-model", func(b *testing.B) {
		u, _ := ntt.NewBankedUnit(t, 4)
		for i := 0; i < b.N; i++ {
			_ = u.Forward(a)
		}
		b.ReportMetric(float64(u.Cycles), "hw-cycles")
	})
}

// BenchmarkAblationModReduction: the paper's shift-add trick vs the
// generic alternatives.
func BenchmarkAblationModReduction(b *testing.B) {
	m := mod.New(mod.ChamQ0)
	rng := rand.New(rand.NewSource(6))
	xs := make([]uint64, 4096)
	ys := make([]uint64, 4096)
	for i := range xs {
		xs[i] = rng.Uint64() % m.Q
		ys[i] = rng.Uint64() % m.Q
	}
	var sink uint64
	b.Run("div64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += m.Mul(xs[i%4096], ys[i%4096])
		}
	})
	b.Run("barrett", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += m.MulBarrett(xs[i%4096], ys[i%4096])
		}
	})
	b.Run("shift-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += m.MulShiftAdd(xs[i%4096], ys[i%4096])
		}
	})
	b.Run("fold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += m.MulFold(xs[i%4096], ys[i%4096])
		}
	})
	b.Run("shoup", func(b *testing.B) {
		wp := m.ShoupPrecomp(ys[0])
		for i := 0; i < b.N; i++ {
			sink += m.MulShoup(xs[i%4096], ys[0], wp)
		}
	})
	_ = sink
}

// BenchmarkAblationEncoding: coefficient vs batch-encoded HMVP on the CPU
// cost model — the O(m) vs O(m log N) separation of §II-E.
func BenchmarkAblationEncoding(b *testing.B) {
	cpu := perfmodel.Xeon6130()
	p := perfmodel.ChamParams()
	var coeff, batch float64
	for i := 0; i < b.N; i++ {
		coeff = cpu.HMVPSeconds(p, 4096, 4096)
		batch = batchSeconds(cpu, p, 4096)
	}
	b.ReportMetric(batch/coeff, "batch/coeff")
}

func batchSeconds(cpu perfmodel.CPU, p perfmodel.Params, m int) float64 {
	ops := core.BatchHMVPOps(p.N, p.NormalLevels, p.FullLevels, m)
	return float64(ops.ModMuls(p.N)) / (cpu.ModMulsPerSec * float64(cpu.Threads) * cpu.Efficiency)
}

// BenchmarkAblationFusion: the Fig. 2a motivation — attainable throughput
// of the fused HMVP vs composing standalone operators.
func BenchmarkAblationFusion(b *testing.B) {
	var fused, standalone float64
	for i := 0; i < b.N; i++ {
		pts := dse.Roofline(fpga.U200)
		standalone = pts[0].Attainable // NTT invoked individually
		fused = pts[len(pts)-1].Attainable
	}
	b.ReportMetric(fused/standalone, "fused/standalone")
}

// BenchmarkAblationParetoPoints: the two published Fig. 2b optima.
func BenchmarkAblationParetoPoints(b *testing.B) {
	a := pipeline.ChamConfig()
	c := pipeline.ChamConfig()
	c.NumEngines = 1
	c.Engine.NBF = 8
	c.FreqMHz = 275 // routed clock of the 8-PE design
	var ta, tc float64
	for i := 0; i < b.N; i++ {
		ta = a.ThroughputRowsPerSec(8192, 4096)
		tc = c.ThroughputRowsPerSec(8192, 4096)
	}
	b.ReportMetric(ta, "2x4PE-rows/s")
	b.ReportMetric(tc, "1x8PE-rows/s")
}

// BenchmarkAblationOverlap: Fig. 1b's host/FPGA pipelining vs serial
// offload.
func BenchmarkAblationOverlap(b *testing.B) {
	sys := hetero.ChamSystem()
	cfg := pipeline.ChamConfig()
	cpu := perfmodel.Xeon6130()
	jobs := make([]hetero.Job, 16)
	for i := range jobs {
		jobs[i] = hetero.HMVPJob(cfg, cpu, 1024, 4096)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		serial := sys.Simulate(jobs, false)
		over := sys.Simulate(jobs, true)
		speedup = serial.Makespan / over.Makespan
	}
	b.ReportMetric(speedup, "overlap-speedup")
}

// BenchmarkAblationDiagonal: §II-E's three encodings side by side on the
// CPU cost model — coefficient (Alg. 1) vs diagonal rotations vs
// BSGS-optimized diagonal, in key-switch counts.
func BenchmarkAblationDiagonal(b *testing.B) {
	const slots = 2048 // N/2 at the production degree
	var plain, bsgs int
	for i := 0; i < b.N; i++ {
		plain, bsgs = core.DiagonalKeySwitchEstimate(slots, 45)
	}
	coeff := core.HMVPOps(4096, 2, 3, slots, slots).KeySwitch
	b.ReportMetric(float64(plain), "diag-ks")
	b.ReportMetric(float64(bsgs), "bsgs-ks")
	b.ReportMetric(float64(coeff), "coeff-ks")
}

// BenchmarkSoftwarePackLWEs measures the Alg. 3 packing tree (m-1
// PACKTWOLWES reductions) in software at production degree.
func BenchmarkSoftwarePackLWEs(b *testing.B) {
	b.ReportAllocs()
	p := benchParams(b, 4096)
	rng := rand.New(rand.NewSource(10))
	sk := p.KeyGen(rng)
	const m = 16
	keys, err := lwe.GenPackingKeys(p, rng, sk, m)
	if err != nil {
		b.Fatal(err)
	}
	cts := make([]*lwe.Ciphertext, m)
	for i := range cts {
		ct := p.Encrypt(rng, sk, p.EncodeVector([]uint64{uint64(i)}), 2)
		cts[i] = lwe.Extract(p, ct, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lwe.PackLWEs(p, cts, keys); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m-1), "reductions/op")
}

// BenchmarkFig5Floorplan regenerates the floorplan rebalancing.
func BenchmarkFig5Floorplan(b *testing.B) {
	var steps int
	for i := 0; i < b.N; i++ {
		fp := fpga.InitialFloorplan(fpga.VU9P, fpga.ChamEngineConfig(), 2)
		var err error
		steps, err = 0, error(nil)
		if err = fp.Rebalance(); err != nil {
			b.Fatal(err)
		}
		steps = len(fp.History) - 2
	}
	b.ReportMetric(float64(steps), "moves")
}

// BenchmarkKernels times each accelerated row kernel of internal/vec
// against the Go loop it mirrors, through the caller both share, on one
// N=4096 row of the first CHAM limb (DESIGN.md §11 "Vector kernels").
// On a host without AVX-512 IFMA only the generic halves run.
func BenchmarkKernels(b *testing.B) {
	const n = 4096
	r := ring.MustNew(n, mod.ChamModuli())
	rng := rand.New(rand.NewSource(11))
	poly := func(levels int, isNTT bool) *ring.Poly {
		p := r.NewPoly(levels)
		for l := range p.Coeffs {
			for i := range p.Coeffs[l] {
				p.Coeffs[l][i] = rng.Uint64() % r.Moduli[l].Q
			}
		}
		p.IsNTT = isNTT
		return p
	}
	x, y, z, w := poly(1, true), poly(1, true), poly(1, true), poly(1, true)
	o0, o1 := poly(1, true), poly(1, true)
	sy, sw := r.ShoupPrecompPoly(y), r.ShoupPrecompPoly(w)
	two := poly(2, false) // ModDownInto drops its second limb: one output row
	lift := two.Coeffs[1] // canonical residues of limb 1, lifted into limb 0
	tab := r.Tables[0]
	kernels := []struct {
		name string
		run  func()
	}{
		{"ForwardNTT", func() { tab.ForwardLazy(o0.Coeffs[0]) }},
		{"InverseNTT", func() { tab.InverseLazy(o0.Coeffs[0]) }},
		{"MonomialSplit", func() { r.MonomialSplitNTT(o0, o1, x, y, 5) }},
		{"MulShoupPair", func() { r.MulCoeffShoupPair(o0, x, y, sy, z, w, sw) }},
		{"MulShoupPairAdd", func() { r.MulCoeffShoupPairAdd(o0, x, y, sy, z, w, sw) }},
		{"MulShoupDual", func() { r.MulCoeffShoupDual(o0, o1, x, z, y, sy) }},
		{"MulShoupDualAdd", func() { r.MulCoeffShoupDualAdd(o0, o1, x, z, y, sy) }},
		{"CentredLift", func() { r.CentredLiftRow(o0.Coeffs[0], lift, 0, 1) }},
		{"ModDownRow", func() { r.ModDownInto(o1, two) }},
		{"Gather", func() { r.AutomorphNTT(o1, x, 5) }},
		{"GatherAdd", func() { r.AutomorphNTTAddInto(o1, x, 5) }},
	}
	for _, k := range kernels {
		b.Run(k.name+"/generic", func(b *testing.B) {
			vec.ForceGeneric(b)
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
		if vec.Impl() == vec.ImplGeneric {
			continue
		}
		b.Run(k.name+"/"+vec.Impl(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}
