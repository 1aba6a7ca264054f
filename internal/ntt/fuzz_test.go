// Fuzz targets for the transform layer. They live in an external test
// package because the big.Int reference (internal/ref) itself imports ntt.
package ntt_test

import (
	"encoding/binary"
	"testing"

	"cham/internal/mod"
	"cham/internal/ntt"
	"cham/internal/ref"
	"cham/internal/testutil"
)

const fuzzN = 32

// fuzzCoeffs expands raw fuzz bytes into n reduced coefficients: 8 bytes
// per coefficient, missing bytes read as zero.
func fuzzCoeffs(data []byte, n int, q uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		var w [8]byte
		copy(w[:], data[min(len(data), i*8):])
		out[i] = binary.LittleEndian.Uint64(w[:]) % q
	}
	return out
}

// FuzzNTTRoundTrip checks, for every CHAM modulus, that the production
// (lazy) transform and the constant-geometry one agree with the O(N²) DFT
// from the reference model and invert exactly.
func FuzzNTTRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, q := range mod.ChamModuli() {
			tb := ntt.MustTable(fuzzN, q)
			a := fuzzCoeffs(data, fuzzN, q)
			want := ref.ForwardDFT(a, q, tb.Psi)

			lazy := append([]uint64(nil), a...)
			tb.ForwardLazy(lazy)
			for i := range lazy {
				if lazy[i] != want[i] {
					t.Fatalf("q=%d: ForwardLazy[%d]=%d, DFT reference %d", q, i, lazy[i], want[i])
				}
			}

			cg := make([]uint64, fuzzN)
			tb.ForwardCG(cg, a)
			for i := range cg {
				if cg[i] != want[i] {
					t.Fatalf("q=%d: ForwardCG[%d]=%d, DFT reference %d", q, i, cg[i], want[i])
				}
			}

			back := append([]uint64(nil), lazy...)
			tb.InverseLazy(back)
			cgBack := make([]uint64, fuzzN)
			tb.InverseCG(cgBack, cg)
			for i := range back {
				if back[i] != a[i] || cgBack[i] != a[i] {
					t.Fatalf("q=%d: inverse(forward(a))[%d] = %d (lazy), %d (CG), want %d", q, i, back[i], cgBack[i], a[i])
				}
			}
			if inv := ref.InverseDFT(want, q, tb.Psi); inv[0] != a[0] || inv[fuzzN-1] != a[fuzzN-1] {
				t.Fatalf("q=%d: reference InverseDFT does not invert", q)
			}
		}
	})
}

// FuzzNegacyclicMul checks that the NTT-based pointwise product equals the
// schoolbook convolution — both the uint64 one and the big.Int reference —
// for arbitrary operands.
func FuzzNegacyclicMul(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{2})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xfe})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		for _, q := range mod.ChamModuli() {
			tb := ntt.MustTable(fuzzN, q)
			m := tb.M
			a := fuzzCoeffs(da, fuzzN, q)
			b := fuzzCoeffs(db, fuzzN, q)
			want := testutil.SchoolbookMul(q, a, b)

			// NTT path: transform, pointwise, inverse.
			fa := append([]uint64(nil), a...)
			fb := append([]uint64(nil), b...)
			tb.ForwardLazy(fa)
			tb.ForwardLazy(fb)
			for i := range fa {
				fa[i] = m.Mul(fa[i], fb[i])
			}
			tb.InverseLazy(fa)
			for i := range fa {
				if fa[i] != want[i] {
					t.Fatalf("q=%d: NTT product[%d]=%d, schoolbook %d", q, i, fa[i], want[i])
				}
			}

			// big.Int reference path (single-limb basis).
			moduli := []uint64{q}
			pa := ref.NewPoly(fuzzN, ref.ModulusProduct(moduli))
			pb := ref.NewPoly(fuzzN, ref.ModulusProduct(moduli))
			for i := 0; i < fuzzN; i++ {
				pa.Coeffs[i].SetUint64(a[i])
				pb.Coeffs[i].SetUint64(b[i])
			}
			rows := ref.Decompose(pa.Mul(pb), moduli)
			for i, v := range rows[0] {
				if v != want[i] {
					t.Fatalf("q=%d: big.Int product[%d]=%d, schoolbook %d", q, i, v, want[i])
				}
			}
		}
	})
}
