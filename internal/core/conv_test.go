package core

import (
	"math/rand"
	"testing"

	"cham/internal/bfv"
)

func randomImage(rng *rand.Rand, h, w int, bound uint64) [][]uint64 {
	img := make([][]uint64, h)
	for i := range img {
		img[i] = make([]uint64, w)
		for j := range img[i] {
			img[i][j] = rng.Uint64() % bound
		}
	}
	return img
}

func TestConv2DMatchesPlain(t *testing.T) {
	p := testParams(t, 64)
	rng := rand.New(rand.NewSource(20))
	sk := p.KeyGen(rng)

	shapes := []Conv2DShape{
		{H: 8, W: 8, KH: 3, KW: 3},
		{H: 8, W: 8, KH: 1, KW: 1},
		{H: 4, W: 16, KH: 2, KW: 5},
		{H: 8, W: 8, KH: 8, KW: 8}, // degenerate: single output
	}
	for _, s := range shapes {
		img := randomImage(rng, s.H, s.W, 256)
		ker := randomImage(rng, s.KH, s.KW, 256)

		ipt, err := EncodeImage(p, s, img)
		if err != nil {
			t.Fatal(err)
		}
		ctImg := p.Encrypt(rng, sk, ipt, p.R.Levels())
		ctOut, err := Conv2D(p, s, ctImg, ker)
		if err != nil {
			t.Fatal(err)
		}
		got := DecodeConvOutput(p, s, p.Decrypt(ctOut, sk))
		want := plainConv2D(p, s, img, ker)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%+v: output (%d,%d) = %d, want %d", s, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestConv2DValidation(t *testing.T) {
	p := testParams(t, 16)
	bad := []Conv2DShape{
		{H: 0, W: 4, KH: 1, KW: 1},
		{H: 4, W: 4, KH: 5, KW: 1},
		{H: 8, W: 8, KH: 1, KW: 1}, // 64 > N=16
	}
	for _, s := range bad {
		if err := s.Validate(p.R.N); err == nil {
			t.Errorf("shape %+v accepted", s)
		}
	}
	s := Conv2DShape{H: 4, W: 4, KH: 2, KW: 2}
	if _, err := EncodeImage(p, s, make([][]uint64, 3)); err == nil {
		t.Error("wrong image height accepted")
	}
	if _, err := EncodeKernel(p, s, [][]uint64{{1, 2, 3}, {4, 5, 6}}); err == nil {
		t.Error("wrong kernel width accepted")
	}
	if s.OutH() != 3 || s.OutW() != 3 {
		t.Error("output shape wrong")
	}
}

// plainConv2D is the cleartext reference.
func plainConv2D(p bfv.Params, s Conv2DShape, img, k [][]uint64) [][]uint64 {
	out := make([][]uint64, s.OutH())
	for i := range out {
		out[i] = make([]uint64, s.OutW())
		for j := range out[i] {
			var acc uint64
			for a := 0; a < s.KH; a++ {
				for b := 0; b < s.KW; b++ {
					acc = p.T.Add(acc, p.T.Mul(p.T.Reduce(img[i+a][j+b]), p.T.Reduce(k[a][b])))
				}
			}
			out[i][j] = acc
		}
	}
	return out
}
