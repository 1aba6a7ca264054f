// Package vec holds the one accelerated implementation of the row loops
// that dominate the HMVP profile: AVX-512 IFMA kernels, eight 52-bit lanes
// per instruction, selected once at start-up from CPUID.
//
// Every kernel has the shape
//
//	func K(q uint64, rows ...[]uint64, consts ...) bool
//
// (the row MAC, MulMontDotPair, also returns its dot products ahead of
// the verdict) and returns false — "not handled, run your Go loop" — when the switch is
// off, the row length is not a positive multiple of 8 (N < 32 for the
// transforms), or q ≥ 2^50 (lazy values reach 4q and must fit a 52-bit
// lane); the lifted forward transform, the dropping inverse and the
// ModDown row also decline a source or dropped modulus they could not read
// in 52 bits. Two sweeps, MulMontConst and EncodeRow, return a count
// instead: the words they wrote, whole blocks of eight from the front,
// stopping before the first block with a word out of their range; the
// caller's Go loop runs the rest. When a kernel returns true (or its
// count) the output rows (and the dot product) are bit-identical to what
// the Go loop it mirrors would have written; that
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

// The transforms' reduction schedules. A transform kernel keeps each value
// as a 52-bit lane word (DESIGN.md §11 "The transforms"), so a value must
// stay below 2^52 wherever a multiplier reads it. Each schedule walks the
// kernel's passes in order — two stages per pass in memory, four or five
// in registers — and sets bit p of reduce when pass p must reduce in every
// stage to keep that bound; a pass whose bit is clear reduces nothing. top
// is the largest value any lane holds. The schedule depends on q and log N
// only, and the wrapper derives it on every call.

// forwardSchedule: the passes are two stages each down to span 16 or 32,
// then the register stages (span 16 or 8 down to 1), five when log N is
// odd. Values start below b·q: 4q for a plain transform, the lift's bound
// for a lifted one. A lazy stage adds at most 2q (u+v and u+2q−v with the
// Shoup product v below 2q); a reducing stage first takes 2q off u when
// u ≥ 2q, so it leaves the bound at 4q, or where it was if that was more.
// b may not pass ⌊2^52/q⌋; the canonical reduction at the end reads any
// value below 2^52.
func forwardSchedule(q uint64, logN int, b uint64) (reduce, top uint64) {
	limit := (1 << 52) / q // the bound b·q may not pass 2^52
	pass := 0
	run := func(stages uint64) {
		if b+2*stages <= limit {
			b += 2 * stages
		} else {
			reduce |= 1 << pass
			b = max(b, 4)
		}
		pass++
	}
	middle := logN - 4
	for i := 0; i < middle/2; i++ {
		run(2)
	}
	run(4 + uint64(middle%2))
	return reduce, b*q - 1
}

// inverseSchedule: the passes are the register stages (span 1 up to 8 or
// 16), five when log N is even, then two stages each up to span N/4; the
// final stage (span N/2, which multiplies both outputs by N^-1 and reduces
// them) follows. Values start below B = 2q. A stage with inputs below B
// forms d = u + B − v and u + v, both below 2B; the product of d is below
// 2q. A lazy stage leaves u + v, so the bound doubles; a reducing stage
// brings it below B with one subtraction of B. So B may not pass 2^51,
// and c[s] receives stage s's constant B.
func inverseSchedule(q uint64, logN int, c *[64]uint64) (reduce, top uint64) {
	const limit = 1 << 51
	bound := 2 * q
	stage, pass := 0, 0
	run := func(stages int) {
		lazy := bound<<stages <= limit
		for i := 0; i < stages; i++ {
			c[stage] = bound
			stage++
			if lazy {
				bound <<= 1
			}
		}
		if !lazy {
			reduce |= 1 << pass
		}
		pass++
	}
	middle := logN - 5
	run(4 + middle%2)
	for i := 0; i < middle/2; i++ {
		run(2)
	}
	c[stage] = bound
	return reduce, 2*bound - 1
}
