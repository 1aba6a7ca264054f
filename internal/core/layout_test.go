package core

import (
	"fmt"
	"testing"

	"cham/internal/testutil"
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
