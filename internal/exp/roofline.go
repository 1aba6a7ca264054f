package exp

import (
	"strconv"

	"cham/internal/core"
)

// Roofline analysis (Fig. 2a): the observation that motivates
// accelerating whole HMVPs rather than individual HE operators.

// dspOpsPerModMul converts modular multiplies into the roofline's
// operation unit (one 27×18 integer multiply, i.e. one DSP slice issue):
// a Shoup modular multiply on the low-Hamming-weight moduli needs two
// such products, the reduction being shifts and adds.
const dspOpsPerModMul = 2

// RooflinePoint positions one kernel on the roofline.
type RooflinePoint struct {
	Kernel    string
	Ops       int64   // 27×18 multiplies
	Bytes     int64   // DRAM traffic
	Intensity float64 // ops per byte
	// Attainable throughput in ops/s: min(peak, intensity·bandwidth).
	Attainable float64
	Bound      string // "memory" or "compute"
}

// Ridge returns the device's ridge-point intensity.
func Ridge(d Device) float64 {
	return d.PeakDSPOps() / (d.DDRGBps * 1e9)
}

func classify(d Device, ops, bytes int64) RooflinePoint {
	p := RooflinePoint{Ops: ops, Bytes: bytes}
	p.Intensity = float64(ops) / float64(bytes)
	bw := p.Intensity * d.DDRGBps * 1e9
	if bw < d.PeakDSPOps() {
		p.Attainable = bw
		p.Bound = "memory"
	} else {
		p.Attainable = d.PeakDSPOps()
		p.Bound = "compute"
	}
	return p
}

// PolyBytes returns the packed size of `polys` single-limb polynomials of
// degree n, each coefficient at ⌈bits/8⌉ bytes of its limb, the limbs
// taken from limbBits in turn: what every modelled transfer charges, and
// what the wire's encodings are held to.
func PolyBytes(n, polys int) int64 {
	var b int64
	for i := 0; i < polys; i++ {
		bits := limbBits[i%len(limbBits)]
		b += int64(n) * int64((bits+7)/8)
	}
	return b
}

// Roofline evaluates the paper's three kernels on the device: a standalone
// NTT, a standalone key switch, and full HMVPs of growing size. The NTT
// and key switch sit far below the ridge (memory-bound: invoking them
// individually wastes the accelerator), while the fused HMVP is
// compute-bound — the observation that drives CHAM's whole-HMVP design.
func Roofline(d Device) []RooflinePoint {
	c := ChamConfig()
	n, normalLevels, fullLevels := c.N, c.NormalLevels, c.FullLevels
	var pts []RooflinePoint

	// Standalone NTT: stream one limb in and out.
	nttOps := core.OpCounts{NTT: 1}.ModMuls(n) * dspOpsPerModMul
	p := classify(d, nttOps, 2*PolyBytes(n, 1))
	p.Kernel = "NTT"
	pts = append(pts, p)

	// Standalone key switch: ciphertext in/out plus the switching key
	// (dnum digits × 2 polys × full basis).
	ksOps := core.KeySwitchOps(normalLevels, fullLevels).ModMuls(n) * dspOpsPerModMul
	ksBytes := PolyBytes(n, 2*normalLevels) + // input ct
		PolyBytes(n, 2*normalLevels) + // output ct
		PolyBytes(n, 2*normalLevels*fullLevels) // keys
	p = classify(d, ksOps, ksBytes)
	p.Kernel = "KeySwitch"
	pts = append(pts, p)

	// Fused HMVPs: matrix streams once, everything else is on-chip.
	for _, m := range []int{256, 1024, 4096} {
		ops := core.HMVPOps(n, normalLevels, fullLevels, m, n).ModMuls(n) * dspOpsPerModMul
		bytes := core.HMVPBytes(n, normalLevels, fullLevels, m, n, limbBits, plaintextBits)
		p = classify(d, ops, bytes)
		p.Kernel = "HMVP " + strconv.Itoa(m) + "x" + strconv.Itoa(n)
		pts = append(pts, p)
	}
	return pts
}
