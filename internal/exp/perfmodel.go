package exp

import "cham/internal/core"

// Analytic cost models for the comparison devices of the paper's
// evaluation: the Intel Xeon Gold 6130 CPU baseline, the NVIDIA Tesla V100
// GPU, and the FATE Paillier stack. Each reads the HE parameter point
// (N and the limb counts) from the accelerator Config it is given.
//
// The FPGA side is simulated cycle-exactly by Config; the comparison
// devices are modeled from operation counts (package core) against
// per-device throughput constants. The constants are calibrated to the
// paper's anchor claims — the CPU key switch at 1/105th of CHAM's 65k
// ops/s, the GPU at 45k NTT ops/s with 4.5× lower HMVP throughput and
// kernel-launch-bound latency, Paillier at FATE's big-integer rates — so
// the generated figures reproduce the published ratios while every scaling
// trend still follows from first-principles operation counts.

// CPU models a multicore software baseline.
type CPU struct {
	Name          string
	Threads       int
	Efficiency    float64 // parallel scaling efficiency on memory-bound NTT code
	ModMulsPerSec float64 // single-thread sustained modular multiplies
	// Fixed per-ciphertext costs (seconds) for non-ModMul-bound steps.
	EncryptSec float64
	DecryptSec float64
}

// Xeon6130 is the paper's production host (2.1 GHz, 16 cores). The
// modular-multiply rate is calibrated so that one hybrid key switch costs
// 105× CHAM's 15.4 µs (§V-B.1).
func Xeon6130() CPU {
	return CPU{
		Name:          "Intel Xeon Gold 6130",
		Threads:       16,
		Efficiency:    0.5, // hyperthreaded cores sustain ~8x on NTT kernels
		ModMulsPerSec: 2.23e8,
		EncryptSec:    180e-6,
		DecryptSec:    120e-6,
	}
}

// seconds converts an operation count into multithreaded wall time.
func (c CPU) seconds(ops core.OpCounts, n int) float64 {
	return float64(ops.ModMuls(n)) / (c.ModMulsPerSec * float64(c.Threads) * c.Efficiency)
}

// HMVPSeconds is the CPU time of one coefficient-encoded HMVP.
func (c CPU) HMVPSeconds(p Config, m, cols int) float64 {
	return c.seconds(core.HMVPOps(p.N, p.NormalLevels, p.FullLevels, m, cols), p.N)
}

// KeySwitchSeconds is the single-threaded time of one hybrid key switch
// (the paper's CPU baseline measures a hot loop on one core).
func (c CPU) KeySwitchSeconds(p Config) float64 {
	ops := core.KeySwitchOps(p.NormalLevels, p.FullLevels)
	return float64(ops.ModMuls(p.N)) / c.ModMulsPerSec
}

// EncryptVectorSeconds is the cost of encrypting a length-`count` vector
// (one ciphertext per N values).
func (c CPU) EncryptVectorSeconds(p Config, count int) float64 {
	cts := (count + p.N - 1) / p.N
	return float64(cts) * c.EncryptSec
}

// DecryptVectorSeconds mirrors EncryptVectorSeconds.
func (c CPU) DecryptVectorSeconds(p Config, count int) float64 {
	cts := (count + p.N - 1) / p.N
	return float64(cts) * c.DecryptSec
}

// AddVecSeconds is the cost of a homomorphic vector addition.
func (c CPU) AddVecSeconds(p Config, count int) float64 {
	cts := (count + p.N - 1) / p.N
	// Coefficient-wise adds are memory-bound; model at one limb pass per
	// poly at the ModMul rate / 4 (adds are ~4x cheaper than muls).
	passes := float64(cts * 2 * p.NormalLevels * p.N)
	return passes / (4 * c.ModMulsPerSec * float64(c.Threads))
}

// GPU models the V100 comparison: high throughput, kernel-launch-bound
// latency.
type GPU struct {
	Name            string
	NTTOpsPerSec    float64 // composite 15-transform ops/s (paper: 45k)
	LaunchOverhead  float64 // per-invocation host+PCIe+launch latency
	ThroughputShare float64 // fraction of NTT-derived peak sustained on HMVP
}

// TeslaV100 uses the paper's quoted 45k NTT ops/s and a 4.5× HMVP
// throughput deficit against CHAM's 195k.
func TeslaV100() GPU {
	return GPU{
		Name:           "NVIDIA Tesla V100",
		NTTOpsPerSec:   45e3,
		LaunchOverhead: 1.2e-3,
		// A single fused kernel sustains about half the NTT-microbenchmark
		// rate on full HMVP — the shared-memory pressure the paper names
		// as the GPU bottleneck. This lands CHAM's HMVP throughput edge at
		// the published 4.5x.
		ThroughputShare: 0.49,
	}
}

// transformsPerSec converts the composite rate into limb transforms.
func (g GPU) transformsPerSec() float64 { return g.NTTOpsPerSec * 15 * g.ThroughputShare }

// HMVPSeconds models one HMVP: transform-bound steady state plus the
// fixed launch overhead that dominates small matrices (which is why CHAM
// sees 0.3-0.7× GPU latency in Fig. 8 despite a 4.5× throughput edge).
func (g GPU) HMVPSeconds(p Config, m, cols int) float64 {
	ops := core.HMVPOps(p.N, p.NormalLevels, p.FullLevels, m, cols)
	transforms := float64(ops.NTT + ops.INTT)
	// Coefficient-wise work rides along in the same kernels at ~10% cost.
	return g.LaunchOverhead + 1.1*transforms/g.transformsPerSec()
}

// EncryptVectorSeconds / DecryptVectorSeconds: transform-bound plus launch.
func (g GPU) EncryptVectorSeconds(p Config, count int) float64 {
	cts := (count + p.N - 1) / p.N
	return g.LaunchOverhead + float64(cts*2*p.FullLevels)/g.transformsPerSec()
}

func (g GPU) DecryptVectorSeconds(p Config, count int) float64 {
	cts := (count + p.N - 1) / p.N
	return g.LaunchOverhead + float64(cts*p.NormalLevels)/g.transformsPerSec()
}

// AddVecSeconds is launch-bound.
func (g GPU) AddVecSeconds(p Config, count int) float64 {
	return g.LaunchOverhead / 2
}

// PaillierCPU models the FATE Paillier stack: every matrix element costs
// one big-integer ciphertext-plaintext exponentiation.
type PaillierCPU struct {
	Name        string
	Threads     int
	MulPlainSec float64 // ciphertext^scalar mod n²
	AddSec      float64 // ciphertext multiply mod n²
	EncryptSec  float64 // g^m·r^n mod n²
	DecryptSec  float64
}

// FATEPaillier uses 2048-bit keys on the Xeon host.
func FATEPaillier() PaillierCPU {
	// MulPlainSec reflects FATE's vectorized Paillier with CRT
	// acceleration; it anchors the matvec-step speed-up range at the
	// paper's 30x (30-row gradients) to 1800x (8192x8192).
	return PaillierCPU{
		Name:        "FATE Paillier (2048-bit)",
		Threads:     16,
		MulPlainSec: 54e-6,
		AddSec:      2e-6,
		EncryptSec:  2.6e-3,
		DecryptSec:  2.4e-3,
	}
}

// MatVecSeconds: m·n scalar multiplies and m·(n-1) adds, multithreaded.
func (pc PaillierCPU) MatVecSeconds(m, cols int) float64 {
	work := float64(m) * float64(cols) * pc.MulPlainSec
	work += float64(m) * float64(cols-1) * pc.AddSec
	return work / float64(pc.Threads)
}

// EncryptVectorSeconds: one Paillier ciphertext per element.
func (pc PaillierCPU) EncryptVectorSeconds(count int) float64 {
	return float64(count) * pc.EncryptSec / float64(pc.Threads)
}

// DecryptVectorSeconds mirrors encryption.
func (pc PaillierCPU) DecryptVectorSeconds(count int) float64 {
	return float64(count) * pc.DecryptSec / float64(pc.Threads)
}

// AddVecSeconds: element-wise ciphertext adds.
func (pc PaillierCPU) AddVecSeconds(count int) float64 {
	return float64(count) * pc.AddSec / float64(pc.Threads)
}
