package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/mod"
	"cham/internal/ntt"
	"cham/internal/perfmodel"
	"cham/internal/vec"
)

func init() {
	Register(Experiment{
		ID:    "software",
		Title: "Measured CPU timings of this repository vs the calibrated Xeon model",
		Paper: "(methodology check — no direct paper artifact)",
		Run:   runSoftware,
	})
}

// timeOp measures one operation with a small warm-up, capping total
// measurement time so the experiment stays interactive.
func timeOp(budget time.Duration, op func()) (perOp time.Duration, iters int) {
	op() // warm-up
	start := time.Now()
	for time.Since(start) < budget {
		op()
		iters++
	}
	if iters == 0 {
		iters = 1
	}
	return time.Since(start) / time.Duration(iters), iters
}

func runSoftware() []*Table {
	const n = 4096
	p, err := bfv.NewChamParams(n)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	sk := p.KeyGen(rng)
	cpu := perfmodel.Xeon6130()
	pm := perfmodel.ChamParams()

	t := &Table{
		ID:      "software",
		Title:   "Go implementation vs calibrated CPU model (single op, this host)",
		Columns: []string{"operation", "measured", "model (16-core Xeon)", "ratio"},
	}

	// NTT forward+inverse of one limb.
	tab := ntt.MustTable(n, mod.ChamQ0)
	poly := make([]uint64, n)
	for i := range poly {
		poly[i] = rng.Uint64() % mod.ChamQ0
	}
	nttT, _ := timeOp(150*time.Millisecond, func() {
		tab.ForwardLazy(poly)
		tab.InverseLazy(poly)
	})
	nttModel := float64(core.OpCounts{NTT: 1, INTT: 1}.ModMuls(n)) / cpu.ModMulsPerSec
	t.AddRow("NTT fwd+inv (1 limb)", nttT.String(), ms(nttModel), f2(nttT.Seconds()/nttModel))

	// Hybrid key switch.
	swk := p.SwitchingKeyGen(rng, sk, sk.Value)
	ct := p.EncryptZeroSym(rng, sk, 2)
	ksT, _ := timeOp(300*time.Millisecond, func() { _ = p.KeySwitch(ct, swk) })
	ksModel := cpu.KeySwitchSeconds(pm)
	t.AddRow("key switch", ksT.String(), ms(ksModel), f2(ksT.Seconds()/ksModel))

	// One evaluator and one matrix serve both HMVP rows: the first eight
	// rows per call, then all 256 — the paper's design point — prepared.
	const designRows = 256
	ev, err := core.NewEvaluator(p, rng, sk, designRows)
	if err != nil {
		panic(err)
	}
	a := make([][]uint64, designRows)
	for i := range a {
		a[i] = make([]uint64, n)
		for j := range a[i] {
			a[i][j] = rng.Uint64() % p.T.Q
		}
	}
	v := make([]uint64, n)
	for j := range v {
		v[j] = rng.Uint64() % p.T.Q
	}
	ctV := core.EncryptVector(p, rng, sk, v)
	hmvpT, _ := timeOp(500*time.Millisecond, func() {
		if _, err := ev.MatVec(a[:8], ctV); err != nil {
			panic(err)
		}
	})
	hmvpModel := cpu.HMVPSeconds(pm, 8, n)
	t.AddRow("HMVP 8x4096", hmvpT.String(), ms(hmvpModel), f2(hmvpT.Seconds()/hmvpModel))

	// The host half of Fig. 1b beside the apply: preparing the design-point
	// matrix (modelled as its forward transforms and companion sweeps),
	// encrypting one vector chunk and reading one result tile back.
	var prepared *core.PreparedMatrix
	prepT, _ := timeOp(time.Second, func() {
		if prepared, err = ev.Prepare(a); err != nil {
			panic(err)
		}
	})
	prepOps := core.OpCounts{NTT: designRows * pm.FullLevels, MultPoly: designRows * pm.FullLevels}
	prepModel := float64(prepOps.ModMuls(n)) / (cpu.ModMulsPerSec * float64(cpu.Threads) * cpu.Efficiency)
	t.AddRow("Prepare 256x4096", prepT.String(), ms(prepModel), f2(prepT.Seconds()/prepModel))
	encT, _ := timeOp(150*time.Millisecond, func() { _ = core.EncryptVector(p, rng, sk, v) })
	encModel := cpu.EncryptVectorSeconds(pm, n)
	t.AddRow("Encrypt (1 chunk)", encT.String(), ms(encModel), f2(encT.Seconds()/encModel))

	// The paper's design point the way the serving stack runs it: the
	// matrix prepared once, the apply warm.
	res := prepared.NewResult()
	designT, _ := timeOp(500*time.Millisecond, func() {
		if err := prepared.ApplyInto(res, ctV); err != nil {
			panic(err)
		}
	})
	designModel := cpu.HMVPSeconds(pm, designRows, n)
	t.AddRow("HMVP 256x4096 (prepared, warm)", designT.String(), ms(designModel), f2(designT.Seconds()/designModel))
	decT, _ := timeOp(150*time.Millisecond, func() { _ = core.DecryptResult(p, res, sk) })
	decModel := cpu.DecryptVectorSeconds(pm, designRows)
	t.AddRow("Decrypt (1 tile)", decT.String(), ms(decModel), f2(decT.Seconds()/decModel))
	cham := chamHMVPSeconds(designRows, n)

	t.Notes = append(t.Notes,
		fmt.Sprintf("CHAM on 256x4096 (pipeline simulation + PCIe + invocation): %s = %.1fx faster than the Xeon model,",
			ms(cham), designModel/cham),
		fmt.Sprintf("%.1fx faster than this host's measured apply (kernels=%s) - the second CPU column under Fig. 8",
			designT.Seconds()/cham, vec.Impl()),
		"the model describes a 16-core Xeon running optimized native code; this table",
		"records how far this Go prototype on this host sits from that calibration",
		fmt.Sprintf("model assumes %d threads x %.0f%% efficiency; HMVP rows ran on %d worker(s) here",
			cpu.Threads, 100*cpu.Efficiency, runtime.GOMAXPROCS(0)))
	return []*Table{t}
}
