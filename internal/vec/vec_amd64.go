package vec

import "math/bits"

// useIFMA is the one kernel switch: set once at start-up from CPUID and
// never written again outside ForceGeneric.
var useIFMA = detectIFMA()

// detectIFMA reports whether the CPU implements AVX-512 F and IFMA and the
// OS saves the SSE, AVX, opmask and ZMM register state.
func detectIFMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<21) != 0 // AVX512F, AVX512IFMA
}

// Impl names the implementation the kernels dispatch to on this host.
func Impl() string {
	if useIFMA {
		return ImplIFMA
	}
	return ImplGeneric
}

// ForceGeneric turns the accelerated kernels off until t's cleanup runs,
// so a test can drive the portable Go loops on an IFMA host. Tests that
// use it must not run in parallel with others in their package.
func ForceGeneric(t interface{ Cleanup(func()) }) {
	prev := useIFMA
	useIFMA = false
	t.Cleanup(func() { useIFMA = prev })
}

// maxQ bounds the moduli the kernels accept: lazy values reach 4q and must
// fit a 52-bit multiplier lane.
const maxQ = 1 << 50

// ok is the gate every kernel applies: switch on, modulus within a lane,
// a row of whole 8-lane vectors, and every operand row at least as long.
func ok(q uint64, n int, rows ...[]uint64) bool {
	if !useIFMA || q >= maxQ || n < 8 || n%8 != 0 {
		return false
	}
	for _, r := range rows {
		if len(r) < n {
			return false
		}
	}
	return true
}

// ForwardNTT runs ntt.(*Table).ForwardLazy on a: the lazy forward transform
// with twiddles w (bit-reversed powers) and their 52-bit Shoup companions
// wShoup = ⌊w·2^52/q⌋, inputs below 4q, canonical output.
func ForwardNTT(q uint64, a, w, wShoup []uint64) bool {
	n := len(a)
	if n < 32 || n&(n-1) != 0 || !ok(q, n, w, wShoup) {
		return false
	}
	reduce, _ := forwardSchedule(q, bits.TrailingZeros(uint(n)), 4)
	forwardNTT(&a[0], nil, n, &w[0], &wShoup[0], q, (1<<52)/q, reduce, 0, 0)
	return true
}

// ForwardNTTLift runs ntt.(*Table).ForwardLazyLift: ForwardNTT of the
// centred lift of src, canonical residues of a source modulus qFrom, into
// out. The first pass lifts each word as it loads it, with no reduction:
// for k = ⌈qFrom/q⌉ a word x becomes x, or x + k·q − qFrom where
// x > qFrom/2, a value below k·q congruent to x − qFrom, and the schedule
// starts from that bound. So k·q must fit 52 bits, which also keeps a
// source word readable in a lane. out may be src itself; otherwise the two
// must not overlap.
func ForwardNTTLift(q uint64, out, src, w, wShoup []uint64, qFrom uint64) bool {
	n := len(out)
	if n < 32 || n&(n-1) != 0 || qFrom == 0 || !ok(q, n, src, w, wShoup) {
		return false
	}
	k := (qFrom-1)/q + 1
	if k > (1<<52)/q {
		return false
	}
	reduce, _ := forwardSchedule(q, bits.TrailingZeros(uint(n)), k)
	forwardNTT(&out[0], &src[0], n, &w[0], &wShoup[0], q, (1<<52)/q, reduce, qFrom/2, k*q-qFrom)
	return true
}

// InverseNTT runs ntt.(*Table).InverseLazy on a: inputs below 2q, canonical
// output, with N^-1 (nInv) and N^-1 times the last twiddle (nInvRoot)
// folded into the final stage; every companion is a 52-bit one, as in
// ForwardNTT.
func InverseNTT(q uint64, a, w, wShoup []uint64, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64) bool {
	n := len(a)
	if n < 32 || n&(n-1) != 0 || !ok(q, n, w, wShoup) {
		return false
	}
	var c [64]uint64
	reduce, _ := inverseSchedule(q, bits.TrailingZeros(uint(n)), &c)
	inverseNTT(&a[0], n, &w[0], &wShoup[0], q, nInv, nInvShoup, nInvRoot, nInvRootShoup, &c[0], reduce, nil, nil, 0, 0, 0)
	return true
}

// InverseNTTDrop runs ntt.(*Table).InverseLazyDrop: InverseNTT of a with
// the ModDown of one limb in its final stage, out = (INTT(a) −
// centred(sp))·p^-1 mod q, canonical, where sp holds canonical residues of
// the dropped modulus p. The final stage's constants arrive with p^-1
// folded in — nInvP = N^-1·p^-1 and nInvRootP = N^-1·p^-1 times the last
// twiddle — and negPInv = −p^-1 mod q is sp's multiplier; every companion
// is a 52-bit one. a is left as scratch; out may be a, sp may not overlap
// out.
func InverseNTTDrop(q uint64, out, a, sp, w, wShoup []uint64, nInvP, nInvPShoup, nInvRootP, nInvRootPShoup, p, negPInv, negPInvShoup uint64) bool {
	n := len(out)
	if n < 32 || n&(n-1) != 0 || p/2 >= maxHalf || !ok(q, n, a, sp, w, wShoup) {
		return false
	}
	var c [64]uint64
	reduce, _ := inverseSchedule(q, bits.TrailingZeros(uint(n)), &c)
	inverseNTT(&a[0], n, &w[0], &wShoup[0], q, nInvP, nInvPShoup, nInvRootP, nInvRootPShoup, &c[0], reduce, &out[0], &sp[0], p/2, negPInv, negPInvShoup)
	return true
}

// MonomialSplit sets sum = e + o∘m' and diff = e - o∘m' for canonical
// rows, where m' repeats each value of m over a run of 2^logRun slots
// (slot i multiplies by m[i>>logRun]) and m holds those values in
// Montgomery form (v·2^52 mod q), so o∘m' is a Montgomery product; qinv is
// q^-1 mod 2^52. Each run broadcasts its value once, so a run must fill
// whole vectors: logRun ≥ 3 and the row a multiple of the run. sum may
// alias e and diff may alias o: a block of eight slots is loaded from both
// before either output is stored.
func MonomialSplit(q, qinv uint64, sum, diff, e, o, m []uint64, logRun int) bool {
	if logRun < 3 {
		return false
	}
	n := len(sum)
	runs := n >> logRun
	if runs<<logRun != n || !ok(q, n, diff, e, o) || len(m) < runs {
		return false
	}
	monomialSplit(&sum[0], &diff[0], &e[0], &o[0], &m[0], n, 1<<logRun, q, qinv)
	return true
}

// maxDotRun bounds the products one mulMontDot call sums: 2^12 a lane, so
// a lane's sum of low 52-bit halves stays below 2^64.
const maxDotRun = 8 << 12

// MulMontDot sets out = x·yA·2^-52 mod q, or accumulates into out when add
// is set, and returns Σ x[i]·yB[i] as hi·2^64 + lo: with yA in Montgomery
// form (y·2^52 mod q) the products are x·y, and yB is read canonical, its
// products summed exactly and never reduced. qinv is q^-1 mod 2^52; x is
// read once for both, and every operand must be below q. The sum is below
// n·q² < n·2^100, so it fits 128 bits for any n below 2^28.
func MulMontDot(q, qinv uint64, out, x, yB, yA []uint64, add bool) (hi, lo uint64, handled bool) {
	n := len(out)
	if !ok(q, n, x, yB, yA) {
		return 0, 0, false
	}
	var s [16]uint64 // lane sums: low halves, then high halves
	for i := 0; i < n; i += maxDotRun {
		mulMontDot(&out[i], &x[i], &yB[i], &yA[i], min(maxDotRun, n-i), q, qinv, add, &s)
		for k, l := range s[:8] {
			h := s[8+k] // weighs 2^52
			var c uint64
			lo, c = bits.Add64(lo, l, 0)
			hi += c
			lo, c = bits.Add64(lo, h<<52, 0)
			hi += c + h>>12
		}
	}
	return hi, lo, true
}

// MulMontPair sets out += a0·b0·2^-52 + a1·b1·2^-52 mod q on canonical
// rows: with b0/b1 in Montgomery form (b·2^52 mod q) the sum is
// a0∘b0 + a1∘b1. qinv is q^-1 mod 2^52; every operand must be below q.
func MulMontPair(q, qinv uint64, out, a0, b0, a1, b1 []uint64) bool {
	n := len(out)
	if !ok(q, n, a0, b0, a1, b1) {
		return false
	}
	mulMontPair(&out[0], &a0[0], &b0[0], &a1[0], &b1[0], n, q, qinv)
	return true
}

// MulMont sets out = a·b·2^-52 mod q, or adds it into out when add is
// set, on canonical rows: with b in Montgomery form (b·2^52 mod q) the
// product is a∘b. qinv is q^-1 mod 2^52; out may alias a.
func MulMont(q, qinv uint64, out, a, b []uint64, add bool) bool {
	n := len(out)
	if !ok(q, n, a, b) {
		return false
	}
	mulMont(&out[0], &a[0], &b[0], n, q, qinv, add)
	return true
}

// MulMontConst sets out[i] = lift(a[i])·c·2^-52 mod q, or adds it into
// out[i] when add is set, over the words of a (out at least as long),
// with c in Montgomery form (c·2^52 mod q, so the product is lift(a)·c)
// and qinv = q^-1 mod 2^52. With t = 0 the lift is the identity and a
// holds residues mod q; with 0 < t < q, a holds residues mod t, read
// through their centred lift: a word above t/2 becomes itself plus q − t.
// Like EncodeRow it returns a count, not a verdict: it runs whole blocks
// of eight words from the front, stops before the first block holding a
// word at or above its bound (q, or t), and returns the words it wrote —
// 0 when it declines — so its caller's Go loop runs the rest, the tail
// and every word out of range included. out may alias a.
func MulMontConst(q, qinv uint64, out, a []uint64, c uint64, add bool, t uint64) int {
	n := len(a) &^ 7
	if t >= q || !ok(q, n, out) {
		return 0
	}
	half, negAdd, bound := t/2, uint64(0), q
	if t != 0 {
		negAdd, bound = q-t, t
	}
	return mulMontConst(&out[0], &a[0], n, q, qinv, c, add, half, negAdd, bound)
}

// EncodeRow sets out[j] = (t − src[n−1−j])·scale mod t for n = len(out),
// canonical — the body of BFV's row encoding (bfv.Params.EncodeRowInto),
// which reads the row backwards — as a Montgomery product mod t: with t
// below 2^32 and entries at most t, every product fits the lane's range.
// Like MulMontConst it returns the words it wrote: whole blocks of eight
// from the front of out, up to the first block whose source holds an
// entry at or above t, or 0 when it declines (t even or at least 2^32, src
// shorter than out). The caller's Go loop runs the rest.
func EncodeRow(t, scale uint64, out, src []uint64) int {
	n := len(out) &^ 7
	if t&1 == 0 || t>>32 != 0 || len(src) < len(out) || !ok(t, n) {
		return 0
	}
	// Block k of out reads the block of src that ends at len(out) − 8k.
	src = src[len(out)-n:]
	return encodeRow(&out[0], &src[0], n, t, inv52(t), bits.Rem64(scale>>12, scale<<52, t))
}

// inv52 returns q^-1 mod 2^52 for odd q (EncodeRow's tinv), by Newton's
// iteration: each step doubles the correct low bits, from the 3 that
// q·q ≡ 1 (mod 8) gives.
func inv52(q uint64) uint64 {
	inv := q
	for i := 0; i < 5; i++ {
		inv *= 2 - q*inv
	}
	return inv & (1<<52 - 1)
}

// maxHalf bounds half the modulus the dropping kernels divide out: they
// read its residues as 52-bit lanes.
const maxHalf = 1 << 51

// ModDownRow runs one limb of ring.(*Ring).ModDownInto: out[i] =
// (a[i] - centred(sp[i])) · pInv mod q, with sp canonical residues of the
// dropped modulus (below 2·halfP+2), qspL that modulus mod q, a canonical
// and pInvShoup the Shoup companion of pInv. out may alias a.
func ModDownRow(q uint64, out, a, sp []uint64, halfP, qspL, pInv, pInvShoup uint64) bool {
	n := len(out)
	if halfP >= maxHalf || !ok(q, n, a, sp) {
		return false
	}
	modDownRow(&out[0], &a[0], &sp[0], n, q, (1<<52)/q, halfP, qspL, pInv, pInvShoup)
	return true
}

// gathered panics unless a gather kernel saw only indices below n. The
// kernel never dereferences one that is not, where the Go loop would have
// failed its bounds check.
func gathered(inRange bool) {
	if !inRange {
		panic("vec: gather index out of range")
	}
}

// Gather sets out[j] = a[perm[j]] over the first len(out) entries of perm,
// every one of which must be below len(out). out must not overlap a.
func Gather(out, a []uint64, perm []uint32) bool {
	n := len(out)
	if len(perm) < n || !ok(0, n, a) { // a copy has no modulus to bound
		return false
	}
	gathered(gather(&out[0], &a[0], &perm[0], n))
	return true
}

// GatherAdd sets out[j] = out[j] + a[perm[j]] mod q on canonical rows,
// perm as in Gather. out must not overlap a.
func GatherAdd(q uint64, out, a []uint64, perm []uint32) bool {
	n := len(out)
	if len(perm) < n || !ok(q, n, a) {
		return false
	}
	gathered(gatherAdd(&out[0], &a[0], &perm[0], n, q))
	return true
}

// The kernels of vec_amd64.s; each header comment there names the Go loop
// it mirrors.

//go:noescape
func forwardNTT(a, src *uint64, n int, w, wp *uint64, q, mu, reduce, half, negAdd uint64)

//go:noescape
func inverseNTT(a *uint64, n int, w, wp *uint64, q, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64, c *uint64, reduce uint64, out, sp *uint64, halfP, negPInv, negPInvShoup uint64)

//go:noescape
func monomialSplit(sum, diff, e, o, m *uint64, n, run int, q, qinv uint64)

//go:noescape
func mulMontDot(out, x, yB, yA *uint64, n int, q, qinv uint64, add bool, sums *[16]uint64)

//go:noescape
func mulMontPair(out, a0, b0, a1, b1 *uint64, n int, q, qinv uint64)

//go:noescape
func mulMont(out, a, b *uint64, n int, q, qinv uint64, add bool)

//go:noescape
func mulMontConst(out, a *uint64, n int, q, qinv, c uint64, add bool, half, negAdd, bound uint64) int

//go:noescape
func encodeRow(out, src *uint64, n int, t, tinv, scale uint64) int

//go:noescape
func modDownRow(out, a, sp *uint64, n int, q, mu, halfP, qspL, pInv, pInvShoup uint64)

//go:noescape
func gather(out, a *uint64, perm *uint32, n int) bool

//go:noescape
func gatherAdd(out, a *uint64, perm *uint32, n int, q uint64) bool

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)
