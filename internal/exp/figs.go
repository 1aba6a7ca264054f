package exp

import (
	"fmt"
	"strings"

	"cham/internal/core"
)

// Evaluation figures: HMVP throughput (Fig. 6), HMVP latency (Fig. 8),
// HeteroLR (Fig. 7a/7b), Beaver triples (Fig. 7c), the host/FPGA overlap
// illustration (Fig. 1b) and the headline summary.

// chamHMVPSeconds wraps the pipeline simulation plus the per-invocation
// host/DMA overhead from the heterogeneous model, which dominates small
// matrices (the "near-linear throughput in m" effect).
func chamHMVPSeconds(m, n int) float64 {
	cfg := ChamConfig()
	job := HMVPJob(cfg, Xeon6130(), m, n)
	sys := ChamSystem()
	transfer := float64(job.H2DBytes+job.D2HBytes) / (sys.PCIeGBps * 1e9)
	const invoke = 0.8e-3 // driver + doorbell + completion
	return cfg.SimulateHMVP(m, n).Seconds(cfg.FreqMHz) + transfer + invoke
}

func runFig6() []*Table {
	gpu := TeslaV100()
	p := ChamConfig()
	t := &Table{
		ID:      "fig6",
		Title:   "HMVP throughput (rows/s) for different matrices",
		Columns: []string{"m", "n", "CHAM rows/s", "GPU rows/s", "CHAM/GPU"},
	}
	for _, n := range []int{256, 4096, 8192} {
		for _, m := range []int{256, 1024, 4096, 8192} {
			chamSec := chamHMVPSeconds(m, n)
			gpuSec := gpu.HMVPSeconds(p, m, n)
			t.AddRow(itoa(m), itoa(n),
				kops(float64(m)/chamSec), kops(float64(m)/gpuSec),
				f2(gpuSec/chamSec)+"x")
		}
	}
	t.Notes = append(t.Notes,
		"throughput rises near-linearly with m while per-matrix overheads amortize, then saturates",
		"n>4096 rows span multiple ciphertexts and must aggregate (the paper's n>=m penalty)")
	return []*Table{t}
}

func runFig8() []*Table {
	cpu := Xeon6130()
	gpu := TeslaV100()
	p := ChamConfig()
	var tables []*Table
	for _, n := range []int{256, 4096} {
		t := &Table{
			ID:      "fig8",
			Title:   fmt.Sprintf("HMVP latency, no. of columns = %d", n),
			Columns: []string{"m", "CPU", "GPU", "CHAM", "vs CPU", "vs GPU", "offload"},
		}
		for _, m := range []int{256, 1024, 4096, 8192} {
			cpuSec := cpu.HMVPSeconds(p, m, n)
			gpuSec := gpu.HMVPSeconds(p, m, n)
			chamSec := chamHMVPSeconds(m, n)
			job := HMVPJob(p, cpu, m, n)
			t.AddRow(itoa(m), ms(cpuSec), ms(gpuSec), ms(chamSec),
				f1(cpuSec/chamSec)+"x", f2(chamSec/gpuSec)+"x",
				f1(100*OffloadFraction(job))+"%")
		}
		tables = append(tables, t)
	}
	return tables
}

// lrShape is one Fig. 7 dataset: samples × total features (split evenly
// between the parties). The gradient HMVP is features × samples.
type lrShape struct{ samples, features int }

var lrShapes = []lrShape{
	{569, 30}, // breast cancer (the FATE demo dataset)
	{1024, 1024},
	{4096, 4096},
	{8192, 4096},
	{8192, 8192},
}

// frameworkSeconds models the FATE stack around the crypto: scheduling,
// Python serialization, network round trips, and the cleartext local
// algebra — identical for every crypto backend. Calibrated so that the
// end-to-end acceleration spans the paper's 2x-36x.
func frameworkSeconds(s lrShape) float64 {
	return 0.14 + 7.5e-5*float64(s.samples) + 9e-8*float64(s.samples)*float64(s.features)
}

// lrIterSeconds returns the per-iteration step times of one HeteroLR
// iteration under a backend.
type lrSteps struct {
	Encrypt, AddVec, MatVec, Decrypt, Total float64
}

func lrPaillier(s lrShape) lrSteps {
	pl := FATEPaillier()
	st := lrSteps{
		Encrypt: pl.EncryptVectorSeconds(s.samples),
		AddVec:  pl.AddVecSeconds(s.samples),
		MatVec:  pl.MatVecSeconds(s.features, s.samples),
		Decrypt: pl.DecryptVectorSeconds(s.features),
	}
	st.Total = st.Encrypt + st.AddVec + st.MatVec + st.Decrypt + frameworkSeconds(s)
	return st
}

func lrBFVCPU(s lrShape) lrSteps {
	cpu := Xeon6130()
	p := ChamConfig()
	st := lrSteps{
		Encrypt: cpu.EncryptVectorSeconds(p, s.samples),
		AddVec:  cpu.AddVecSeconds(p, s.samples),
		MatVec:  cpu.HMVPSeconds(p, s.features, s.samples),
		Decrypt: cpu.DecryptVectorSeconds(p, s.features),
	}
	st.Total = st.Encrypt + st.AddVec + st.MatVec + st.Decrypt + frameworkSeconds(s)
	return st
}

func lrBFVGPU(s lrShape) lrSteps {
	gpu := TeslaV100()
	p := ChamConfig()
	st := lrSteps{
		Encrypt: gpu.EncryptVectorSeconds(p, s.samples),
		AddVec:  gpu.AddVecSeconds(p, s.samples),
		MatVec:  gpu.HMVPSeconds(p, s.features, s.samples),
		Decrypt: gpu.DecryptVectorSeconds(p, s.features),
	}
	st.Total = st.Encrypt + st.AddVec + st.MatVec + st.Decrypt + frameworkSeconds(s)
	return st
}

func lrCHAM(s lrShape) lrSteps {
	cpu := Xeon6130()
	p := ChamConfig()
	st := lrSteps{
		Encrypt: cpu.EncryptVectorSeconds(p, s.samples), // host still encrypts
		AddVec:  cpu.AddVecSeconds(p, s.samples),
		MatVec:  chamHMVPSeconds(s.features, s.samples),
		Decrypt: cpu.DecryptVectorSeconds(p, s.features),
	}
	st.Total = st.Encrypt + st.AddVec + st.MatVec + st.Decrypt + frameworkSeconds(s)
	return st
}

func runFig7ab() []*Table {
	steps := &Table{
		ID:      "fig7ab",
		Title:   "HeteroLR per-iteration step times",
		Columns: []string{"dataset", "backend", "encrypt", "add_vec", "matvec", "decrypt", "total"},
	}
	speed := &Table{
		ID:      "fig7ab",
		Title:   "HeteroLR speed-ups vs FATE Paillier",
		Columns: []string{"dataset", "matvec speed-up (CHAM)", "end-to-end (BFV-CPU)", "end-to-end (CHAM)"},
	}
	for _, s := range lrShapes {
		name := fmt.Sprintf("%dx%d", s.samples, s.features)
		backends := []struct {
			name string
			st   lrSteps
		}{
			{"Paillier-CPU", lrPaillier(s)},
			{"BFV-CPU", lrBFVCPU(s)},
			{"BFV-GPU", lrBFVGPU(s)},
			{"BFV-CHAM", lrCHAM(s)},
		}
		for _, b := range backends {
			steps.AddRow(name, b.name, ms(b.st.Encrypt), ms(b.st.AddVec), ms(b.st.MatVec), ms(b.st.Decrypt), ms(b.st.Total))
		}
		pail, cham, bfvCPU := backends[0].st, backends[3].st, backends[1].st
		speed.AddRow(name,
			f1(pail.MatVec/cham.MatVec)+"x",
			f2(pail.Total/bfvCPU.Total)+"x",
			f1(pail.Total/cham.Total)+"x")
	}
	speed.Notes = append(speed.Notes,
		"paper: matvec 30x-1800x, end-to-end 2x-36x; large datasets gain most because matvec dominates")
	return []*Table{steps, speed}
}

// delphiLayers are representative linear-layer shapes from the Delphi /
// MiniONN CIFAR-10 networks, expressed as matvec dimensions.
var delphiLayers = []struct {
	name string
	m, n int
}{
	{"fc-small", 64, 1024},
	{"conv-3x3x64", 1024, 4096},
	{"conv-3x3x128", 4096, 4096},
	{"fc-big", 8192, 4096},
	{"conv-wide", 16384, 4096},
}

// delphiBaselineSeconds models the original Delphi preprocessing: a
// SEAL-style batch-encoded (rotate-and-sum) HMVP on the host CPU,
// O(m·log N) key switches (§II-E).
func delphiBaselineSeconds(m int) float64 {
	p := ChamConfig()
	return Xeon6130().seconds(core.BatchHMVPOps(p.N, p.NormalLevels, p.FullLevels, m), p.N)
}

func runFig7c() []*Table {
	t := &Table{
		ID:      "fig7c",
		Title:   "Beaver triple generation per layer",
		Columns: []string{"layer", "shape", "Delphi baseline", "CHAM", "speed-up"},
	}
	minR, maxR := 1e18, 0.0
	for _, l := range delphiLayers {
		base := delphiBaselineSeconds(l.m)
		cham := chamHMVPSeconds(l.m, l.n)
		r := base / cham
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		t.AddRow(l.name, fmt.Sprintf("%dx%d", l.m, l.n), ms(base), ms(cham), f1(r)+"x")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("speed-up range %.0fx-%.0fx (paper: 49x-144x)", minR, maxR))
	return []*Table{t}
}

func runFig1b() []*Table {
	sys := ChamSystem()
	cfg := ChamConfig()
	cpu := Xeon6130()
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = HMVPJob(cfg, cpu, 1024, 4096)
	}
	serial := sys.Simulate(jobs, false)
	over := sys.Simulate(jobs, true)
	t := &Table{
		ID:      "fig1b",
		Title:   "Pipelined execution of multi-thread CPU and FPGA (12 HMVP jobs)",
		Columns: []string{"schedule", "makespan", "engine util", "speed-up"},
	}
	t.AddRow("serial offload", ms(serial.Makespan), f1(100*serial.EngineUtilization(sys.Engines))+"%", "1.0x")
	t.AddRow("overlapped (Fig. 1b)", ms(over.Makespan), f1(100*over.EngineUtilization(sys.Engines))+"%",
		f2(serial.Makespan/over.Makespan)+"x")
	for _, line := range strings.Split(strings.TrimRight(over.Gantt(sys.Threads, sys.Engines, 64), "\n"), "\n") {
		t.Notes = append(t.Notes, line)
	}
	return []*Table{t}
}

func runHeadline() []*Table {
	t := &Table{
		ID:      "headline",
		Title:   "Headline speed-ups (abstract claims)",
		Columns: []string{"claim", "paper", "reproduced"},
	}
	// HMVP vs the FATE Paillier CPU baseline at the largest LR shape.
	pl := FATEPaillier()
	hm := pl.MatVecSeconds(8192, 8192) / chamHMVPSeconds(8192, 8192)
	t.AddRow("matrix-vector product", "1800x", f0(hm)+"x")
	// End-to-end HeteroLR at the largest shape.
	s := lrShapes[len(lrShapes)-1]
	lr := lrPaillier(s).Total / lrCHAM(s).Total
	t.AddRow("logistic regression", "36x", f1(lr)+"x")
	// Beaver triples: best layer.
	best := 0.0
	for _, l := range delphiLayers {
		if r := delphiBaselineSeconds(l.m) / chamHMVPSeconds(l.m, l.n); r > best {
			best = r
		}
	}
	t.AddRow("Beaver triple generation", "144x", f0(best)+"x")
	return []*Table{t}
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
