package main

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"runtime"
	"time"

	"cham"
	"cham/internal/core"
	"cham/internal/lwe"
	rt "cham/internal/runtime"
	"cham/internal/wire"
)

// perLayer is the per-layer metric set of one traced run: every metric
// BENCHMARK.json declares, 0 for a layer the workload does not traverse.
type perLayer map[string]float64

func newPerLayer(spec *benchSpec) perLayer {
	pl := perLayer{}
	for _, m := range spec.PerLayer {
		pl[m.Name] = 0
	}
	return pl
}

// moreReps says whether a probe that has n timings since start should take
// another: at least three, then until the budget is spent, at most 1000.
func moreReps(n int, start time.Time, budget time.Duration) bool {
	return n < 3 || (time.Since(start) < budget && n < 1000)
}

// timeReps warms f once, then calls it while moreReps says so, returning
// each call's duration in milliseconds.
func timeReps(budget time.Duration, f func() error) ([]float64, error) {
	if err := f(); err != nil {
		return nil, err
	}
	var out []float64
	for start := time.Now(); moreReps(len(out), start, budget); {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// scoreBench derives the benchmark's own numbers, and the loaded client
// timings, from the traced window and its untraced twin.
func scoreBench(pl perLayer, untraced, traced window, spans []span) {
	var lags, waits []float64
	for _, o := range traced.ops {
		lags = append(lags, o.lagMs)
		waits = append(waits, o.waitMs)
		var we *wire.Error
		switch {
		case o.err == nil || errors.Is(o.err, errMismatch):
		case errors.As(o.err, &we):
			pl["server.rejected"]++
		default:
			pl["client.errors"]++
		}
	}
	pl["bench.generator_lag_ms_p90"] = p90(lags)
	pl["client.send_wait_ms_p90"] = p90(waits)
	pl["bench.samples"] = float64(len(traced.ops))
	pl["bench.peak_rss_mb"] = peakRSSMB()
	var self []float64
	for _, ns := range selfTimes(spans) {
		self = append(self, float64(ns)/1e6)
	}
	pl["bench.harness_self_ms_p50"] = p50(self)
	if u := p50(untraced.verifiedLatencies()); u > 0 {
		pl["bench.trace_overhead_ratio"] = p50(traced.verifiedLatencies())/u - 1
	}
	// As measured, like every per-layer number: only the end-to-end
	// metrics are stated at the reference host speed.
	pl["bench.latency_ms_p90"] = p90(untraced.verifiedLatencies())
	pl["bench.host_ref_ms"] = midmean(untraced.refTimings())
	pl["client.rtt_loaded_ms_p50"] = p50(spanDurationsMs(spans, "client.apply"))
}

// kernelEnv is what the kernel-layer probes run on: the workload's own
// keys, one matrix of its shape, and one cleartext vector of its width.
type kernelEnv struct {
	p     cham.Params
	sk    *cham.SecretKey
	ev    *cham.Evaluator
	rng   *rand.Rand
	a     [][]uint64
	vec   []uint64
	batch int // vectors one op multiplies
}

// kernelOut is what the kernel probes leave for the serving-layer probes
// to reuse: the prepared matrix, an encrypted vector and its product.
type kernelOut struct {
	pm  *core.PreparedMatrix
	ct  []*cham.Ciphertext
	res *cham.Result
}

// kernelProbes times one entry point per kernel layer in isolation.
func kernelProbes(pl perLayer, e kernelEnv, budget time.Duration) (kernelOut, error) {
	p, r := e.p, e.p.R
	n, nl, full := r.N, e.p.NormalLevels, r.Levels()
	rows, cols := len(e.a), len(e.a[0])

	// bfv: encrypt one vector of the workload's width, decrypt one result.
	var ct []*cham.Ciphertext
	enc, _ := timeReps(budget, func() error { ct = cham.EncryptVector(p, e.rng, e.sk, e.vec); return nil })
	pl["bfv.encrypt_ms_p50"] = p50(enc)

	// ntt: one full-basis polynomial there and back, per limb.
	poly := r.NewPoly(full)
	r.UniformPoly(e.rng, poly)
	var fw, iv []float64
	for start := time.Now(); moreReps(len(fw), start, budget); {
		t0 := time.Now()
		r.NTT(poly)
		t1 := time.Now()
		r.INTT(poly)
		t2 := time.Now()
		fw = append(fw, float64(t1.Sub(t0))/1e3/float64(full))
		iv = append(iv, float64(t2.Sub(t1))/1e3/float64(full))
	}
	pl["ntt.forward_us_per_limb"] = p50(fw)
	pl["ntt.inverse_us_per_limb"] = p50(iv)

	// ring: the dual row MAC and one ModDown pass.
	outB, outA, aB, aA, b := r.NewPoly(full), r.NewPoly(full), r.NewPoly(full), r.NewPoly(full), r.NewPoly(full)
	r.UniformPoly(e.rng, aB)
	r.UniformPoly(e.rng, aA)
	r.UniformPoly(e.rng, b)
	shoup := r.ShoupPrecompPoly(b)
	mac, _ := timeReps(budget, func() error { r.MulCoeffShoupDualAdd(outB, outA, aB, aA, b, shoup); return nil })
	pl["ring.mac_dual_us"] = p50(mac) * 1e3
	down := r.NewPoly(full - 1)
	md, _ := timeReps(budget, func() error { r.ModDownInto(down, aB); return nil })
	pl["ring.moddown_us"] = p50(md) * 1e3

	// rlwe: one key switch under the first packing key.
	nct := p.Encrypt(e.rng, e.sk, p.EncodeVector(e.vec[:min(n, len(e.vec))]), nl)
	if swk := e.ev.Keys.Keys[3]; swk != nil {
		ks, _ := timeReps(budget, func() error { _ = p.KeySwitch(nct, swk); return nil })
		pl["rlwe.keyswitch_us_p50"] = p50(ks) * 1e3
	}

	// lwe: the pack tree over the workload's leaves, every tile of one product.
	tiles := (rows + n - 1) / n
	mPad := 1
	for mPad < min(rows, n) {
		mPad <<= 1
	}
	pack, merge, err := packProbe(e, mPad, tiles, budget)
	if err != nil {
		return kernelOut{}, err
	}
	pl["lwe.pack_tree_ms_p50"] = pack
	pl["lwe.merge_us"] = merge

	// core: prepare, warm apply, batched apply, cold MatVec.
	runtime.GC()
	runtime.GC() // twice: a sync.Pool holds its contents through one cycle
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pm, err := e.ev.Prepare(e.a)
	if err != nil {
		return kernelOut{}, err
	}
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	pl["core.prepared_mb"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20)
	prep, err := timeReps(budget, func() error { _, err := e.ev.Prepare(e.a); return err })
	if err != nil {
		return kernelOut{}, err
	}
	pl["core.prepare_ms_p50"] = p50(prep)

	res := pm.NewResult()
	apply, err := timeReps(budget, func() error { return pm.ApplyInto(res, ct) })
	if err != nil {
		return kernelOut{}, err
	}
	pl["core.apply_ms_p50"] = p50(apply)
	const allocRuns = 5
	a0 := mallocCount()
	for k := 0; k < allocRuns; k++ {
		if err := pm.ApplyInto(res, ct); err != nil {
			return kernelOut{}, err
		}
	}
	pl["core.apply_allocs"] = float64(mallocCount()-a0) / allocRuns

	const probeBatch = 4 // matmul_fresh_wide's lane count, used everywhere so the figures compare
	vecs := make([][]*cham.Ciphertext, probeBatch)
	batchRes := make([]*cham.Result, probeBatch)
	for k := range vecs {
		vecs[k], batchRes[k] = ct, pm.NewResult()
	}
	bt, err := timeReps(budget, func() error { return pm.ApplyBatchInto(batchRes, vecs) })
	if err != nil {
		return kernelOut{}, err
	}
	pl["core.apply_batch_ms_p50"] = p50(bt)
	cold, err := timeReps(budget, func() error { _, err := e.ev.MatVec(e.a, ct); return err })
	if err != nil {
		return kernelOut{}, err
	}
	pl["core.matvec_cold_ms_p50"] = p50(cold)
	pl["core.rowwork_ms"] = pl["core.apply_ms_p50"] - pack
	if a := pl["core.apply_ms_p50"]; a > 0 {
		pl["lwe.pack_share"] = pack / a
	}

	dec, _ := timeReps(budget, func() error { _ = cham.DecryptResult(p, res, e.sk); return nil })
	pl["bfv.decrypt_ms_p50"] = p50(dec)

	// The model: what core/opcount.go says one op should cost.
	ops := core.HMVPOps(n, nl, full, rows, cols)
	limbBits := make([]int, full)
	for l := range limbBits {
		limbBits[l] = bits.Len64(r.Moduli[l].Q)
	}
	perVec := float64(ops.ModMuls(n))
	pl["ntt.count_per_op"] = float64((ops.NTT + ops.INTT) * e.batch)
	pl["rlwe.keyswitch_count_per_op"] = float64(ops.KeySwitch * e.batch)
	pl["core.model_modmuls_per_op"] = perVec * float64(e.batch)
	pl["core.model_bytes_per_op"] = float64(core.HMVPBytes(n, nl, full, rows, cols, limbBits, bits.Len64(p.T.Q))) * float64(e.batch)
	pl["core.ns_per_modmul"] = pl["core.apply_ms_p50"] * 1e6 / perVec
	return kernelOut{pm: pm, ct: ct, res: res}, nil
}

// packProbe times PackResident + FlushInto over mPad leaves per tile.
// The tree consumes its leaves, so each repetition refills them (untimed)
// from one pristine node; modular arithmetic does not branch on values,
// so uniform residues time the same as real row products. It returns the
// median per-product tree time (ms) and the per-merge time (us).
func packProbe(e kernelEnv, mPad, tiles int, budget time.Duration) (packMs, mergeUs float64, err error) {
	p, r := e.p, e.p.R
	pristine := lwe.NewPackNode(p)
	r.UniformPoly(e.rng, pristine.BT)
	r.UniformPoly(e.rng, pristine.A)
	pristine.BT.IsNTT, pristine.A.IsNTT = true, true
	work := make([]*lwe.PackNode, mPad)
	for i := range work {
		work[i] = lwe.NewPackNode(p)
	}
	out := &cham.Ciphertext{B: r.NewPoly(p.NormalLevels), A: r.NewPoly(p.NormalLevels)}
	workers := min(runtime.GOMAXPROCS(0), mPad) // Evaluator.Workers default
	var total, merges []float64
	for start, rep := time.Now(), 0; rep == 0 || moreReps(len(total), start, budget); rep++ {
		var tree, fold time.Duration
		for t := 0; t < tiles; t++ {
			for _, nd := range work {
				nd.BT.CopyFrom(pristine.BT)
				nd.A.CopyFrom(pristine.A)
			}
			t0 := time.Now()
			root, err := lwe.PackResident(p, work, e.ev.Keys, workers)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			lwe.FlushInto(p, out, root)
			fold += t1.Sub(t0)
			tree += time.Since(t0)
		}
		if rep == 0 {
			continue // pool warm-up
		}
		total = append(total, ms(tree))
		if mPad > 1 {
			merges = append(merges, float64(fold)/1e3/float64(tiles*(mPad-1)))
		}
	}
	return p50(total), p50(merges), nil
}

// wireProbes sizes and times the two messages an apply exchanges.
func wireProbes(pl perLayer, p cham.Params, id [32]byte, ct []*cham.Ciphertext, res *cham.Result, budget time.Duration) error {
	r := p.R
	req := wire.Apply{ID: id, DeadlineMicros: uint64(30 * time.Second / time.Microsecond), Vector: ct}
	var reqB, resB []byte
	encA, _ := timeReps(budget, func() error { reqB = wire.EncodeApply(r, req); return nil })
	decA, err := timeReps(budget, func() error { _, err := wire.DecodeApply(r, reqB); return err })
	if err != nil {
		return err
	}
	out := wire.Result{M: uint32(res.M), N: uint32(res.N), Packed: res.Packed}
	encR, _ := timeReps(budget, func() error { resB = wire.EncodeResult(r, out); return nil })
	decR, err := timeReps(budget, func() error { _, err := wire.DecodeResult(r, resB); return err })
	if err != nil {
		return err
	}
	pl["wire.apply_bytes"], pl["wire.result_bytes"] = float64(len(reqB)), float64(len(resB))
	pl["wire.encode_apply_us"], pl["wire.decode_apply_us"] = p50(encA)*1e3, p50(decA)*1e3
	pl["wire.encode_result_us"], pl["wire.decode_result_us"] = p50(encR)*1e3, p50(decR)*1e3
	return nil
}

// runtimeProbe times one descriptor job on the chamserve-default card,
// the per-batch cost the server's card mirror adds.
func runtimeProbe(pl perLayer, tileRows, cols int, budget time.Duration) error {
	card, err := chamserveCard()
	if err != nil {
		return err
	}
	d := &rt.HMVPDescriptor{
		Rows: uint32(tileRows), Cols: uint32(cols),
		MatrixAddr: 0x1000_0000, VectorAddr: 0x2000_0000, KeyAddr: 0x3000_0000, ResultAddr: 0x4000_0000,
		PackRowsLog2: uint8(bits.Len(uint(tileRows - 1))),
	}
	job, err := timeReps(budget, func() error { return card.RunHMVPCtx(context.Background(), d) })
	if err != nil {
		return err
	}
	pl["runtime.job_us_p50"] = p50(job) * 1e3
	return nil
}
