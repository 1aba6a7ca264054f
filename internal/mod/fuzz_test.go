package mod

import (
	"math/big"
	"testing"
)

// FuzzModReduce cross-checks every reduction strategy of the paper's §IV.A
// datapath against math/big ground truth, over arbitrary (coerced) moduli
// and operands: hardware division, two-word Barrett, Shoup multiplication,
// and the DSP-free shift-add multiplier.
func FuzzModReduce(f *testing.F) {
	for _, q := range ChamModuli() {
		f.Add(q, uint64(0), ^uint64(0), uint64(12345), uint64(67890))
	}
	f.Add(uint64(65537), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(uint64(3), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(1)<<61+1, uint64(7), uint64(9), uint64(1)<<60, uint64(1)<<59)
	f.Fuzz(func(t *testing.T, q, hi, lo, a, b uint64) {
		q |= 1 // coerce into the valid modulus space
		q &= (1 << MaxModulusBits) - 1
		if q < 3 {
			q = 3
		}
		m, err := TryNew(q)
		if err != nil {
			t.Skip()
		}
		qB := new(big.Int).SetUint64(q)
		mod64 := func(x uint64) uint64 {
			return new(big.Int).Mod(new(big.Int).SetUint64(x), qB).Uint64()
		}

		if got, want := m.Reduce(a), mod64(a); got != want {
			t.Fatalf("Reduce(%d) mod %d = %d, want %d", a, q, got, want)
		}
		if got, want := m.ReduceBarrett(a), mod64(a); got != want {
			t.Fatalf("ReduceBarrett(%d) mod %d = %d, want %d", a, q, got, want)
		}

		wide := new(big.Int).SetUint64(hi)
		wide.Lsh(wide, 64)
		wide.Add(wide, new(big.Int).SetUint64(lo))
		want128 := new(big.Int).Mod(wide, qB).Uint64()
		if got := m.Reduce128(hi, lo); got != want128 {
			t.Fatalf("Reduce128(%d,%d) mod %d = %d, want %d", hi, lo, q, got, want128)
		}
		if hi < q { // BarrettReduce128 contract: value below q·2^64
			if got := m.BarrettReduce128(hi, lo); got != want128 {
				t.Fatalf("BarrettReduce128(%d,%d) mod %d = %d, want %d", hi, lo, q, got, want128)
			}
		}

		prod := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		wantMul := new(big.Int).Mod(prod, qB).Uint64()
		if got := m.Mul(a, b); got != wantMul {
			t.Fatalf("Mul(%d,%d) mod %d = %d, want %d", a, b, q, got, wantMul)
		}
		ar, br := m.Reduce(a), m.Reduce(b)
		wantMulR := m.Mul(ar, br)
		if got := m.MulBarrett(ar, br); got != wantMulR {
			t.Fatalf("MulBarrett(%d,%d) mod %d = %d, want %d", ar, br, q, got, wantMulR)
		}
		wp := m.ShoupPrecomp(br)
		if got := m.MulShoup(ar, br, wp); got != wantMulR {
			t.Fatalf("MulShoup(%d,%d) mod %d = %d, want %d", ar, br, q, got, wantMulR)
		}
		if m.LowHW {
			if got := m.MulShiftAdd(ar, br); got != wantMulR {
				t.Fatalf("MulShiftAdd(%d,%d) mod %d = %d, want %d", ar, br, q, got, wantMulR)
			}
		}

		// Centring must round-trip and respect the (-q/2, q/2] window.
		c := m.CenterLift(ar)
		if c > int64(q/2) || -c > int64(q/2) {
			t.Fatalf("CenterLift(%d) mod %d = %d outside the centred window", ar, q, c)
		}
		if back := m.FromCentered(c); back != ar {
			t.Fatalf("FromCentered(CenterLift(%d)) mod %d = %d", ar, q, back)
		}
	})
}

// FuzzShoupPrecomp holds the division-free companion word to
// bits.Div64(w, 0, q) over arbitrary (coerced) moduli and words, reduced or
// not.
func FuzzShoupPrecomp(f *testing.F) {
	for _, q := range ChamModuli() {
		f.Add(q, uint64(0))
		f.Add(q, q-1)
		f.Add(q, q/2+1)
	}
	f.Add(uint64(65537), uint64(65536))
	f.Add(uint64(1)<<62-1, uint64(1)<<62-2)
	f.Add(uint64(3), ^uint64(0))
	f.Fuzz(func(t *testing.T, q, w uint64) {
		q = q&(1<<MaxModulusBits-1) | 1
		if q < 3 {
			q = 3
		}
		if got, want := New(q).ShoupPrecomp(w), shoupPrecompDiv64(q, w); got != want {
			t.Fatalf("q=%d: ShoupPrecomp(%d) = %d, want %d", q, w, got, want)
		}
	})
}
