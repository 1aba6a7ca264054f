//go:build !amd64

package vec

// No accelerated kernels off amd64: every kernel declines and its caller
// runs the Go loop.

func Impl() string { return ImplGeneric }

func ForceGeneric(interface{ Cleanup(func()) }) {}

func ForwardNTT(q uint64, a, w, wShoup []uint64) bool { return false }

func ForwardNTTLift(q uint64, out, src, w, wShoup []uint64, qFrom uint64) bool { return false }

func InverseNTT(q uint64, a, w, wShoup []uint64, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64) bool {
	return false
}

func InverseNTTDrop(q uint64, out, a, sp, w, wShoup []uint64, nInvP, nInvPShoup, nInvRootP, nInvRootPShoup, p, negPInv, negPInvShoup uint64) bool {
	return false
}

func MonomialSplit(q, qinv uint64, sum, diff, e, o, m []uint64, logRun int) bool {
	return false
}

func MulMontDot(q, qinv uint64, out, x, yB, yA []uint64, add bool) (hi, lo uint64, handled bool) {
	return 0, 0, false
}

func MulMontPair(q, qinv uint64, out, a0, b0, a1, b1 []uint64) bool { return false }

func MulMont(q, qinv uint64, out, a, b []uint64, add bool) bool { return false }

func MulMontConst(q, qinv uint64, out, a []uint64, c uint64, add bool, t uint64) int { return 0 }

func EncodeRow(t, scale uint64, out, src []uint64) int { return 0 }

func ModDownRow(q uint64, out, a, sp []uint64, halfP, qspL, pInv, pInvShoup uint64) bool {
	return false
}

func Gather(out, a []uint64, perm []uint32) bool { return false }

func GatherAdd(q uint64, out, a []uint64, perm []uint32) bool { return false }
