//go:build !amd64

package vec

// No accelerated kernels off amd64: every kernel declines and its caller
// runs the Go loop.

func Impl() string { return ImplGeneric }

func ForceGeneric(interface{ Cleanup(func()) }) {}

func ForwardNTT(q uint64, a, w, wShoup []uint64) bool { return false }

func InverseNTT(q uint64, a, w, wShoup []uint64, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64) bool {
	return false
}

func MonomialSplit(q uint64, sum, diff, e, o, m, mShoup []uint64) bool { return false }

func MulShoupPair(q uint64, out, a0, b0, s0, a1, b1, s1 []uint64, add bool) bool { return false }

func MulShoupDual(q uint64, outB, outA, aB, aA, k, kShoup []uint64, add bool) bool { return false }

func CentredLift(q uint64, out, x []uint64, half, negAdd uint64) bool { return false }

func ModDownRow(q uint64, out, a, sp []uint64, halfP, qspL, pInv, pInvShoup uint64) bool {
	return false
}

func Gather(out, a []uint64, perm []uint32) bool { return false }

func GatherAdd(q uint64, out, a []uint64, perm []uint32) bool { return false }
