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
	"cham/internal/vec"
)

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

// designRows is the paper's design-point matrix height (256×4096).
const designRows = 256

// softwareModel is the deterministic half of the software table: the
// calibrated Xeon's seconds for each operation the table times, and CHAM's
// for the design-point apply (the table's note).
type softwareModel struct {
	NTT, KeySwitch, HMVP8, Prepare, Encrypt, Apply, Decrypt, CHAM float64
}

func modelSoftware() softwareModel {
	cpu := Xeon6130()
	p := ChamConfig()
	n := p.N
	return softwareModel{
		NTT:       float64(core.OpCounts{NTT: 1, INTT: 1}.ModMuls(n)) / cpu.ModMulsPerSec,
		KeySwitch: cpu.KeySwitchSeconds(p),
		HMVP8:     cpu.HMVPSeconds(p, 8, n),
		// Preparing the matrix is modelled as its forward transforms, the
		// paper's one plaintext NTT per row.
		Prepare: cpu.seconds(core.OpCounts{NTT: designRows * p.FullLevels}, n),
		Encrypt: cpu.EncryptVectorSeconds(p, n),
		Apply:   cpu.HMVPSeconds(p, designRows, n),
		Decrypt: cpu.DecryptVectorSeconds(p, designRows),
		CHAM:    chamHMVPSeconds(designRows, n),
	}
}

func runSoftware() []*Table {
	n := ChamConfig().N
	p, err := bfv.NewChamParams(n)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	sk := p.KeyGen(rng)
	model := modelSoftware()
	cpu := Xeon6130()

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
	t.AddRow("NTT fwd+inv (1 limb)", nttT.String(), ms(model.NTT), f2(nttT.Seconds()/model.NTT))

	// Hybrid key switch.
	swk := p.SwitchingKeyGen(rng, sk, sk.Value)
	ct := p.EncryptZeroSym(rng, sk, 2)
	ksT, _ := timeOp(300*time.Millisecond, func() { _ = p.KeySwitch(ct, swk) })
	t.AddRow("key switch", ksT.String(), ms(model.KeySwitch), f2(ksT.Seconds()/model.KeySwitch))

	// One evaluator and one matrix serve both HMVP rows: the first eight
	// rows prepared and applied per call, then all 256 — the paper's
	// design point — prepared once.
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
	t.AddRow("HMVP 8x4096", hmvpT.String(), ms(model.HMVP8), f2(hmvpT.Seconds()/model.HMVP8))

	// The host half of Fig. 1b beside the apply: preparing the design-point
	// matrix, encrypting one vector chunk and reading one result tile back.
	var prepared *core.PreparedMatrix
	prepT, _ := timeOp(time.Second, func() {
		if prepared, err = ev.Prepare(a); err != nil {
			panic(err)
		}
	})
	t.AddRow("Prepare 256x4096", prepT.String(), ms(model.Prepare), f2(prepT.Seconds()/model.Prepare))
	encT, _ := timeOp(150*time.Millisecond, func() { _ = core.EncryptVector(p, rng, sk, v) })
	t.AddRow("Encrypt (1 chunk)", encT.String(), ms(model.Encrypt), f2(encT.Seconds()/model.Encrypt))

	// The paper's design point the way the serving stack runs it: the
	// matrix prepared once, the apply warm.
	res := prepared.NewResult()
	designT, _ := timeOp(500*time.Millisecond, func() {
		if err := prepared.ApplyInto(res, ctV); err != nil {
			panic(err)
		}
	})
	t.AddRow("HMVP 256x4096 (prepared, warm)", designT.String(), ms(model.Apply), f2(designT.Seconds()/model.Apply))
	decT, _ := timeOp(150*time.Millisecond, func() { _ = core.DecryptResult(p, res, sk) })
	t.AddRow("Decrypt (1 tile)", decT.String(), ms(model.Decrypt), f2(decT.Seconds()/model.Decrypt))

	t.Notes = append(t.Notes,
		fmt.Sprintf("CHAM on 256x4096 (pipeline simulation + PCIe + invocation): %s = %.1fx faster than the Xeon model,",
			ms(model.CHAM), model.Apply/model.CHAM),
		fmt.Sprintf("%.1fx faster than this host's measured apply (kernels=%s) - the second CPU column under Fig. 8",
			designT.Seconds()/model.CHAM, vec.Impl()),
		"the model describes a 16-core Xeon running optimized native code; this table",
		"records how far this Go prototype on this host sits from that calibration",
		fmt.Sprintf("model assumes %d threads x %.0f%% efficiency; HMVP rows ran on %d worker(s) here",
			cpu.Threads, 100*cpu.Efficiency, runtime.GOMAXPROCS(0)))
	return []*Table{t}
}
