// Package vec holds the one accelerated implementation of the row loops
// that dominate the HMVP profile: AVX-512 IFMA kernels, eight 52-bit lanes
// per instruction, selected once at start-up from CPUID.
//
// Every kernel has the shape
//
//	func K(q uint64, rows ...[]uint64, consts ...) bool
//
// and returns false — "not handled, run your Go loop" — when the switch is
// off, the row length is not a positive multiple of 8 (N < 32 for the
// transforms), or q ≥ 2^50 (lazy values reach 4q and must fit a 52-bit
// lane); the two lifting kernels also decline a source modulus they could
// not read in 52 bits. When it returns true the output rows are
// bit-identical to what the Go loop it mirrors would have written; that
// loop stays in place in its own package as the portable reference. The
// two gathers, the only kernels that form an address from data, check
// every index against the row length and panic rather than read outside
// the row. DESIGN.md §11 "Vector kernels" has the arithmetic and its range
// arguments.
package vec

// The values Impl returns.
const (
	ImplIFMA    = "avx512ifma"
	ImplGeneric = "generic"
)
