package ref

import (
	"math/big"
	"math/bits"
)

// Naive DFT-style reference transforms, written directly from the
// definition the ntt package documents: the forward negacyclic NTT
// evaluates the polynomial at the odd powers ψ^(2k+1) of the primitive
// 2N-th root ψ and stores evaluation k at the bit-reversed index brv(k);
// the inverse interpolates back, including the N^{-1} scaling. Everything
// runs in O(N²) big-integer arithmetic.

func brv(x uint, width int) uint {
	return uint(bits.Reverse64(uint64(x)) >> (64 - width))
}

// ForwardDFT returns the negacyclic NTT of a modulo q with primitive 2N-th
// root psi: out[brv(k)] = Σ_n a_n·ψ^{(2k+1)n} mod q.
func ForwardDFT(a []uint64, q, psi uint64) []uint64 {
	n := len(a)
	logN := bits.Len(uint(n)) - 1
	qB := new(big.Int).SetUint64(q)
	psiB := new(big.Int).SetUint64(psi)
	out := make([]uint64, n)
	acc := new(big.Int)
	term := new(big.Int)
	pw := new(big.Int)
	x := new(big.Int)
	for k := 0; k < n; k++ {
		// Evaluation point ψ^(2k+1).
		x.Exp(psiB, new(big.Int).SetInt64(int64(2*k+1)), qB)
		acc.SetInt64(0)
		pw.SetInt64(1)
		for i := 0; i < n; i++ {
			term.SetUint64(a[i])
			term.Mul(term, pw)
			acc.Add(acc, term)
			pw.Mul(pw, x)
			pw.Mod(pw, qB)
		}
		acc.Mod(acc, qB)
		out[brv(uint(k), logN)] = acc.Uint64()
	}
	return out
}

// InverseDFT inverts ForwardDFT: given â with â[brv(k)] = a(ψ^{2k+1}),
// it recovers a_i = N^{-1}·Σ_k â[brv(k)]·ψ^{-(2k+1)i} mod q.
func InverseDFT(ahat []uint64, q, psi uint64) []uint64 {
	n := len(ahat)
	logN := bits.Len(uint(n)) - 1
	qB := new(big.Int).SetUint64(q)
	psiB := new(big.Int).SetUint64(psi)
	psiInv := new(big.Int).ModInverse(psiB, qB)
	nInv := new(big.Int).ModInverse(new(big.Int).SetInt64(int64(n)), qB)
	out := make([]uint64, n)
	acc := new(big.Int)
	term := new(big.Int)
	pw := new(big.Int)
	step := new(big.Int)
	for i := 0; i < n; i++ {
		// ψ^{-(2k+1)i} starts at ψ^{-i} for k=0 and advances by ψ^{-2i}.
		pw.Exp(psiInv, new(big.Int).SetInt64(int64(i)), qB)
		step.Exp(psiInv, new(big.Int).SetInt64(int64(2*i)), qB)
		acc.SetInt64(0)
		for k := 0; k < n; k++ {
			term.SetUint64(ahat[brv(uint(k), logN)])
			term.Mul(term, pw)
			acc.Add(acc, term)
			pw.Mul(pw, step)
			pw.Mod(pw, qB)
		}
		acc.Mul(acc, nInv)
		acc.Mod(acc, qB)
		out[i] = acc.Uint64()
	}
	return out
}

// InverseFFT is InverseDFT in O(N log N) word arithmetic, for the degrees
// the HMVP reference runs at: with A_k = â[brv(k)] and ω = ψ², a_i =
// N^{-1}·ψ^{-i}·Σ_k A_k·ω^{-ik}, and a radix-2 decimation-in-time pass
// over the bit-reversed â yields the sums in natural order. Every product
// is reduced by a 128-bit division.
func InverseFFT(ahat []uint64, q, psi uint64) []uint64 {
	n := len(ahat)
	mul := func(x, y uint64) uint64 {
		hi, lo := bits.Mul64(x, y)
		_, r := bits.Div64(hi%q, lo, q)
		return r
	}
	pow := func(x uint64, e int) uint64 {
		r := uint64(1)
		for ; e > 0; e >>= 1 {
			if e&1 == 1 {
				r = mul(r, x)
			}
			x = mul(x, x)
		}
		return r
	}
	psiInv := pow(psi, 2*n-1) // ψ^{2N} = 1
	omegaInv := mul(psiInv, psiInv)
	x := append([]uint64(nil), ahat...)
	for size := 2; size <= n; size <<= 1 {
		step := pow(omegaInv, n/size)
		for start := 0; start < n; start += size {
			w := uint64(1)
			for j := start; j < start+size/2; j++ {
				u, v := x[j], mul(x[j+size/2], w)
				x[j], x[j+size/2] = (u+v)%q, (u+q-v)%q
				w = mul(w, step)
			}
		}
	}
	scale := pow(uint64(n)%q, int(q-2)) // N^{-1}, q prime
	for i := range x {
		x[i] = mul(x[i], scale)
		scale = mul(scale, psiInv)
	}
	return x
}
