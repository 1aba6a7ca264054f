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
	"cham/internal/exp"
	"cham/internal/lwe"
	"cham/internal/mod"
	"cham/internal/ntt"
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
		if err := exp.CheckTable2Calibration(); err != nil {
			b.Fatal(err)
		}
	}
	_, total, _ := exp.Table2(exp.ChamConfig().Engine, 2)
	b.ReportMetric(float64(total.LUT), "LUT")
	b.ReportMetric(float64(total.BRAM), "BRAM")
}

// --- Table III: single-NTT comparison ---

func BenchmarkTable3NTT(b *testing.B) {
	var rows []exp.Table3Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table3(4096, 4)
	}
	b.ReportMetric(float64(rows[0].Latency), "cycles")
	b.ReportMetric(rows[3].ATPLUT, "HEAX-ATP")
}

// --- Fig. 2a: roofline ---

func BenchmarkFig2aRoofline(b *testing.B) {
	var pts []exp.RooflinePoint
	for i := 0; i < b.N; i++ {
		pts = exp.Roofline(exp.U200)
	}
	b.ReportMetric(pts[len(pts)-1].Intensity, "HMVP-ops/B")
}

// --- Fig. 2b: design-space exploration ---

func BenchmarkFig2bDSE(b *testing.B) {
	var best exp.DesignPoint
	for i := 0; i < b.N; i++ {
		pts := exp.Explore(exp.VU9P)
		best, _ = exp.Best(pts)
	}
	b.ReportMetric(best.RowsSec, "best-rows/s")
}

// --- Fig. 6: HMVP throughput ---

func BenchmarkFig6Throughput(b *testing.B) {
	runExp(b, "fig6")
	cfg := exp.ChamConfig()
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
	cpu := exp.Xeon6130()
	p := exp.ChamConfig()
	cham := p.SimulateHMVP(4096, 4096).Seconds(300)
	b.ReportMetric(cpu.HMVPSeconds(p, 4096, 4096)/cham, "speedup-vs-cpu")
}

// --- §V-B.1: key-switch throughput ---

func BenchmarkKeySwitch(b *testing.B) {
	cfg := exp.ChamConfig()
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
// "warm/256x4096" is the same warm apply at the paper's design point on
// one worker — the shape `go test -run '^$' -bench
// 'PreparedMatVec/warm/256x4096' -cpuprofile cpu.out .` profiles.
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
	b.Run("warm/256x4096", func(b *testing.B) {
		b.ReportAllocs()
		const rows = 256
		ev, err := NewEvaluator(p, rng, sk, rows)
		if err != nil {
			b.Fatal(err)
		}
		ev.Workers = 1
		pm, err := ev.Prepare(testutil.Matrix(rng, rows, 4096, p.T.Q))
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

// BenchmarkSoftwareEncrypt times one augmented-basis encryption at N=4096
// on the seeded generator NewRNG returns and on NewSecureRNG's ChaCha8.
func BenchmarkSoftwareEncrypt(b *testing.B) {
	p := benchParams(b, 4096)
	sk := p.KeyGen(rand.New(rand.NewSource(4)))
	pt := p.NewPlaintext()
	for _, src := range []struct {
		name string
		rng  *rand.Rand
	}{{"seeded", NewRNG(4)}, {"secure", NewSecureRNG()}} {
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.Encrypt(src.rng, sk, pt, 3)
			}
		})
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
	cpu := exp.Xeon6130()
	p := exp.ChamConfig()
	var coeff, batch float64
	for i := 0; i < b.N; i++ {
		coeff = cpu.HMVPSeconds(p, 4096, 4096)
		batch = batchSeconds(cpu, p, 4096)
	}
	b.ReportMetric(batch/coeff, "batch/coeff")
}

func batchSeconds(cpu exp.CPU, p exp.Config, m int) float64 {
	ops := core.BatchHMVPOps(p.N, p.NormalLevels, p.FullLevels, m)
	return float64(ops.ModMuls(p.N)) / (cpu.ModMulsPerSec * float64(cpu.Threads) * cpu.Efficiency)
}

// BenchmarkAblationFusion: the Fig. 2a motivation — attainable throughput
// of the fused HMVP vs composing standalone operators.
func BenchmarkAblationFusion(b *testing.B) {
	var fused, standalone float64
	for i := 0; i < b.N; i++ {
		pts := exp.Roofline(exp.U200)
		standalone = pts[0].Attainable // NTT invoked individually
		fused = pts[len(pts)-1].Attainable
	}
	b.ReportMetric(fused/standalone, "fused/standalone")
}

// BenchmarkAblationParetoPoints: the two published Fig. 2b optima.
func BenchmarkAblationParetoPoints(b *testing.B) {
	a := exp.ChamConfig()
	c := exp.ChamConfig()
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
	sys := exp.ChamSystem()
	cfg := exp.ChamConfig()
	cpu := exp.Xeon6130()
	jobs := make([]exp.Job, 16)
	for i := range jobs {
		jobs[i] = exp.HMVPJob(cfg, cpu, 1024, 4096)
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
		fp := exp.InitialFloorplan(exp.VU9P, exp.ChamConfig().Engine, 2)
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
// N=4096 row of the first CHAM limb (DESIGN.md §11 "Vector kernels"), and
// the two transforms also on an N=512 row, the ring degree of the
// cluster_scatter workload. The lifted forward reads a digit of the
// second limb, as the decomposition does; the dropping inverse divides the
// special limb out, writing the row its next call reads. The broadcast
// sweep runs as MulScalar (the apply's â·2^52) and as BFV's Δ·m, lifted
// from t and accumulated; the row encode is Prepare's, a full row at the
// scale of a 32-row tile. On a host without AVX-512 IFMA only the generic
// halves run.
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
	dot := make([][2][2]uint64, 1)
	my, mw := r.NewPoly(1), r.NewPoly(1) // y and w in Montgomery form
	r.MulScalar(my, y, 1<<52)
	r.MulScalar(mw, w, 1<<52)
	two := poly(2, false) // ModDownInto drops its second limb: one output row
	lift := two.Coeffs[1] // canonical residues of limb 1, lifted into limb 0
	tab := r.Tables[0]
	sp := poly(3, false).Coeffs[2] // canonical residues of the special limb
	drop := tab.NewDrop(mod.ChamP)
	dropA, dropOut := x.Copy().Coeffs[0], make([]uint64, n)
	p := benchParams(b, n)
	m := make([]uint64, n) // a plaintext row and a matrix row, below t
	for i := range m {
		m[i] = rng.Uint64() % p.T.Q
	}
	delta := r.NewScalar(0, rng.Uint64()) // Δ mod q_0 stands in: any constant times alike
	scale := p.InvPow2(5)
	tab512 := ntt.MustTable(512, mod.ChamQ0)
	row512 := make([]uint64, 512)
	for i := range row512 {
		row512[i] = rng.Uint64() % mod.ChamQ0
	}
	kernels := []struct {
		name string
		run  func()
	}{
		{"ForwardNTT", func() { tab.ForwardLazy(o0.Coeffs[0]) }},
		{"InverseNTT", func() { tab.InverseLazy(o0.Coeffs[0]) }},
		{"ForwardNTTLift", func() { tab.ForwardLazyLift(o0.Coeffs[0], lift, mod.ChamQ1) }},
		{"InverseNTTDrop", func() {
			tab.InverseLazyDrop(dropOut, dropA, sp, &drop)
			dropA, dropOut = dropOut, dropA
		}},
		{"ForwardNTT512", func() { tab512.ForwardLazy(row512) }},
		{"InverseNTT512", func() { tab512.InverseLazy(row512) }},
		{"MonomialSplit", func() { r.MonomialSplitNTT(o0, o1, x, y, 16) }}, // the deepest merge's z
		{"MulMontPairAdd", func() { r.MulCoeffMontPairAdd(o0, x, my, z, mw) }},
		{"MulMontDot", func() { r.MulCoeffMontDot(dot, o1, x, y, mw, false) }},
		{"MulMontDotAdd", func() { r.MulCoeffMontDot(dot, o1, x, y, mw, true) }},
		{"MulMont", func() { r.MulCoeffMont(o1, x, my, false) }},
		{"MulMontAdd", func() { r.MulCoeffMont(o1, x, my, true) }},
		{"MulScalar", func() { r.MulScalar(o1, x, 1<<52) }},
		{"MulScalarLiftAdd", func() { r.MulScalarRow(0, o1.Coeffs[0], m, delta, true, p.T.Q) }},
		{"EncodeRow", func() { p.EncodeRowInto(o0.Coeffs[0], m, scale) }},
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
