package vec

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

// ForwardNTT runs ntt.(*Table).forwardOne on a: the lazy forward transform
// with twiddles w (bit-reversed powers, Shoup companions wShoup), inputs
// below 4q, canonical output.
func ForwardNTT(q uint64, a, w, wShoup []uint64) bool {
	n := len(a)
	if n < 32 || n&(n-1) != 0 || !ok(q, n, w, wShoup) {
		return false
	}
	forwardNTT(&a[0], n, &w[0], &wShoup[0], q)
	return true
}

// InverseNTT runs ntt.(*Table).inverseOne on a: inputs below 2q, canonical
// output, with N^-1 (nInv) and N^-1 times the last twiddle (nInvRoot)
// folded into the final stage.
func InverseNTT(q uint64, a, w, wShoup []uint64, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64) bool {
	n := len(a)
	if n < 32 || n&(n-1) != 0 || !ok(q, n, w, wShoup) {
		return false
	}
	inverseNTT(&a[0], n, &w[0], &wShoup[0], q, nInv, nInvShoup, nInvRoot, nInvRootShoup)
	return true
}

// MonomialSplit sets sum = e + o∘m and diff = e - o∘m for canonical rows,
// mShoup the Shoup companion of m. sum may alias e.
func MonomialSplit(q uint64, sum, diff, e, o, m, mShoup []uint64) bool {
	n := len(sum)
	if !ok(q, n, diff, e, o, m, mShoup) {
		return false
	}
	monomialSplit(&sum[0], &diff[0], &e[0], &o[0], &m[0], &mShoup[0], n, q)
	return true
}

// MulShoupPair sets out = a0∘b0 + a1∘b1, or out += … when add is set;
// s0/s1 are the Shoup companions of b0/b1.
func MulShoupPair(q uint64, out, a0, b0, s0, a1, b1, s1 []uint64, add bool) bool {
	n := len(out)
	if !ok(q, n, a0, b0, s0, a1, b1, s1) {
		return false
	}
	mulShoupPair(&out[0], &a0[0], &b0[0], &s0[0], &a1[0], &b1[0], &s1[0], n, q, add)
	return true
}

// MulShoupDual sets outB = aB∘k and outA = aA∘k, or accumulates into both
// when add is set; kShoup is the Shoup companion of k.
func MulShoupDual(q uint64, outB, outA, aB, aA, k, kShoup []uint64, add bool) bool {
	n := len(outB)
	if !ok(q, n, outA, aB, aA, k, kShoup) {
		return false
	}
	mulShoupDual(&outB[0], &outA[0], &aB[0], &aA[0], &k[0], &kShoup[0], n, q, add)
	return true
}

// maxHalf bounds half the source modulus of the two lifting kernels: their
// 52-bit Barrett reduction reads residues below 2^52.
const maxHalf = 1 << 51

// CentredLift runs the row loop of ring.(*Ring).CentredLiftRow: out[i] is
// the canonical residue of x[i] mod q, plus negAdd where x[i] > half. x
// holds canonical residues of a modulus below 2·half+2.
func CentredLift(q uint64, out, x []uint64, half, negAdd uint64) bool {
	n := len(out)
	if half >= maxHalf || !ok(q, n, x) {
		return false
	}
	centredLift(&out[0], &x[0], n, q, (1<<52)/q, half, negAdd)
	return true
}

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
func forwardNTT(a *uint64, n int, w, wp *uint64, q uint64)

//go:noescape
func inverseNTT(a *uint64, n int, w, wp *uint64, q, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64)

//go:noescape
func monomialSplit(sum, diff, e, o, m, ms *uint64, n int, q uint64)

//go:noescape
func mulShoupPair(out, a0, b0, s0, a1, b1, s1 *uint64, n int, q uint64, add bool)

//go:noescape
func mulShoupDual(outB, outA, aB, aA, k, s *uint64, n int, q uint64, add bool)

//go:noescape
func centredLift(out, x *uint64, n int, q, mu, half, negAdd uint64)

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
