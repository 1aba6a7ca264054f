package core

import (
	"fmt"
	"testing"

	"cham/internal/rlwe"
	"cham/internal/testutil"
	"cham/internal/vec"
)

// TestLayouts drives both vector layouts through every shape that moves
// their arithmetic at N = 64: one row, one full tile, one row past it (a
// padded one-row last tile) and three tiles, each over one and three
// column chunks. The packed offset must land on every row's slot, the
// dense offset and decode must round-trip, and the public-key encryption
// must lay its chunks out like the secret-key one.
func TestLayouts(t *testing.T) {
	p := testParams(t, 64)
	n := p.R.N
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	pk := p.PublicKeyGen(rng, sk)
	ev, err := NewEvaluator(p, rng, sk, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 64, 65, 130} {
		for _, chunks := range []int{1, 3} {
			cols := chunks*n - n/2 // the last chunk half full
			t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
				A := testutil.Matrix(rng, rows, cols, p.T.Q)
				v := testutil.Vector(rng, cols, p.T.Q)
				ctV := EncryptVector(p, rng, sk, v)
				if len(ctV) != chunks {
					t.Fatalf("EncryptVector made %d chunks, want %d", len(ctV), chunks)
				}
				if got := DecryptVector(p, EncryptVectorPK(p, rng, pk, v), sk, cols); !equalVec(got, v) {
					t.Fatal("EncryptVectorPK does not decrypt like EncryptVector")
				}

				// Dense: offset, then decode.
				w := testutil.Vector(rng, cols, p.T.Q)
				dense := EncryptVector(p, rng, sk, v)
				AddVector(p, dense, w)
				want := make([]uint64, cols)
				for j := range want {
					want[j] = p.T.Add(v[j], w[j])
				}
				if got := DecryptVector(p, dense, sk, cols); !equalVec(got, want) {
					t.Fatal("dense offset then decode is not v + w")
				}

				// Packed: the product, offset, then read out.
				res, err := ev.MatVec(A, ctV)
				if err != nil {
					t.Fatal(err)
				}
				if want := MaxTilePad(rows, n); res.Tile(0).Pad != want || want > n {
					t.Fatalf("first tile pads to %d, MaxTilePad says %d", res.Tile(0).Pad, want)
				}
				last := res.Tile(len(res.Packed) - 1)
				if last.Base+last.Rows != rows {
					t.Fatalf("last tile ends at row %d, want %d", last.Base+last.Rows, rows)
				}
				u := testutil.Vector(rng, rows, p.T.Q)
				AddResult(p, res, u)
				want = PlainMatVec(p, A, v)
				for i := range want {
					want[i] = p.T.Add(want[i], u[i])
				}
				if got := DecryptResult(p, res, sk); !equalVec(got, want) {
					t.Fatal("packed offset then DecryptResult is not A·v + u")
				}
			})
		}
	}
}

func equalVec(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDecryptResultReadsDecryptSlots: DecryptResult rounds only the slots
// its tiles' rows occupy, and reads there exactly what Decrypt reads, for
// any phase — the tiles are uniform ciphertexts in either domain — with
// the kernels and with the Go loops.
func TestDecryptResultReadsDecryptSlots(t *testing.T) {
	for _, n := range []int{64, 4096} {
		p := testParams(t, n)
		rng := testutil.NewRand(t)
		sk := p.KeyGen(rng)
		for _, rows := range []int{1, 33, 256} {
			res := &Result{M: rows, N: n}
			for ti := 0; ti*n < rows; ti++ {
				ct := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
				p.R.UniformPoly(rng, ct.B)
				p.R.UniformPoly(rng, ct.A)
				ct.B.IsNTT, ct.A.IsNTT = ti%2 == 1, ti%2 == 1
				res.Packed = append(res.Packed, ct)
			}
			for _, generic := range []bool{false, true} {
				t.Run(fmt.Sprintf("N=%d/rows=%d/generic=%v", n, rows, generic), func(t *testing.T) {
					if generic {
						vec.ForceGeneric(t)
					}
					var want []uint64
					for ti, ct := range res.Packed {
						dec := p.Decrypt(ct, sk)
						for i := range res.Tile(ti).Rows {
							want = append(want, dec.Coeffs[res.Tile(ti).Slot(i)])
						}
					}
					if got := DecryptResult(p, res, sk); !equalVec(got, want) {
						t.Fatalf("DecryptResult reads %v, Decrypt at the same slots %v", got, want)
					}
				})
			}
		}
	}
}
