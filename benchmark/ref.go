package main

import (
	"math/bits"
	"time"
)

// The host-speed reference.
//
// The box this benchmark runs on is a few cores of a shared host whose
// speed moves with its other tenants: by 10-20 % for a minute at a time,
// in bad phases by more. Such a phase outlasts a run, so no statistic
// taken inside one run removes it, and ten runs of the same code then
// disagree by more than any bound the contract allows.
//
// So every measured window carries a clock of its own: after each
// operation the caller lane runs hostRef, a fixed piece of arithmetic, and
// times it: half of it radix-2 butterflies with Shoup modular
// multiplication over an L2-resident array (independent operations, bound
// by the core's throughput, as the program's transforms are), half a chain
// of dependent multiply-divides (bound by latency). A busy sibling thread
// on the host slows the first kind by far more than the second, a
// frequency drop slows both alike; the program's operations sit between
// the two, and measured against either half alone the correction over- or
// undershoots. The window's host factor is refNominalMs over the mean of
// the middle half of those timings, and every time of the window that the
// host's speed stretches - latencies, CPU seconds, a closed loop's wall
// clock - is multiplied by it. A time reported by this benchmark therefore reads "at the speed
// at which the reference takes refNominalMs", which is this box when
// quiet. A change to the program moves the reported time by its full
// ratio; a slow phase of the host moves reference and program together
// and cancels. The raw readings and the factor are printed with every run.
//
// THIS FILE IS FROZEN. hostRef is the yardstick: it must not call into
// the program, and editing it (or refNominalMs) rebases every timing
// metric, which makes a result incomparable with its parent's.

const (
	refN      = 4096  // coefficients, as the program's ring degree
	refPasses = 12    // butterfly passes per call: about 0.8 ms on the reference box
	refChain  = 90000 // dependent multiply-divide steps per call: about 1 ms
	refQ      = 0x0ffffffffffc0001

	// refNominalMs is what one hostRef call takes on the quiet reference
	// box (Intel Xeon @ 2.10 GHz, go1.24): the speed all reported times
	// are stated at.
	refNominalMs = 1.80
)

// hostRef is one lane's reference kernel; lanes do not share one, the
// kernel updates its array in place.
type hostRef struct {
	a, w, wShoup []uint64
}

func newHostRef() *hostRef {
	h := &hostRef{a: make([]uint64, refN), w: make([]uint64, refN/2), wShoup: make([]uint64, refN/2)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 4) % refQ
	}
	for i := range h.a {
		h.a[i] = next()
	}
	for i := range h.w {
		h.w[i] = next()
		h.wShoup[i], _ = bits.Div64(h.w[i], 0, refQ)
	}
	h.run() // fault the arrays in and warm the caches
	return h
}

// run does the fixed work and returns how long it took.
func (h *hostRef) run() time.Duration {
	a, w, ws := h.a, h.w, h.wShoup
	t0 := time.Now()
	for pass := 0; pass < refPasses; pass++ {
		for half := refN / 2; half >= 1; half >>= 1 {
			for i := 0; i < refN; i += 2 * half {
				for j := i; j < i+half; j++ {
					k := j & (refN/2 - 1)
					u, x := a[j], a[j+half]
					hi, _ := bits.Mul64(x, ws[k])
					v := x*w[k] - hi*refQ
					if v >= refQ {
						v -= refQ
					}
					s := u + v
					if s >= refQ {
						s -= refQ
					}
					d := u - v
					if u < v {
						d += refQ
					}
					a[j], a[j+half] = s, d
				}
			}
		}
	}
	x := a[0] | 1
	for i := uint64(0); i < refChain; i++ {
		hi, lo := bits.Mul64(x, x+i)
		_, x = bits.Div64(hi%refQ, lo, refQ)
	}
	a[0] = x
	return time.Since(t0)
}

// hostFactor turns reference timings (ms) into the factor a window's
// times are multiplied by: below 1 when the host ran slow. It takes the
// mean of their middle half: an op integrates over a disturbance that
// comes and goes within it, as a mean of the timings does and their
// median does not, and a stall that hits one 2 ms timing tells nothing
// about the ops, which the mean would take in and the middle half leaves
// out. Over ten runs it held the tightest spread of median, mean and
// trimmed means on all four workloads. No timings (a window without
// operations) gives 1.
func hostFactor(refMs []float64) float64 {
	if m := midmean(refMs); m > 0 {
		return refNominalMs / m
	}
	return 1
}
