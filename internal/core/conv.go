package core

import (
	"fmt"

	"cham/internal/bfv"
	"cham/internal/rlwe"
)

// 2-D convolution via coefficient encoding — the extension of Alg. 1 the
// paper points to (§II-E, after Cheetah [18]). A single-channel image is
// laid out row-major in polynomial coefficients; the kernel is encoded
// mirrored so that one negacyclic polynomial multiplication computes every
// valid convolution output simultaneously.

// Conv2DShape describes a valid (no-padding, stride-1) convolution.
type Conv2DShape struct {
	H, W   int // image height, width
	KH, KW int // kernel height, width
}

// OutH and OutW are the valid-output dimensions.
func (s Conv2DShape) OutH() int { return s.H - s.KH + 1 }
func (s Conv2DShape) OutW() int { return s.W - s.KW + 1 }

// Validate checks the shape fits the ring degree.
func (s Conv2DShape) Validate(n int) error {
	if s.H < 1 || s.W < 1 || s.KH < 1 || s.KW < 1 {
		return fmt.Errorf("core: non-positive convolution dimensions")
	}
	if s.KH > s.H || s.KW > s.W {
		return fmt.Errorf("core: kernel %dx%d larger than image %dx%d", s.KH, s.KW, s.H, s.W)
	}
	if s.H*s.W > n {
		return fmt.Errorf("core: image %dx%d does not fit N=%d coefficients", s.H, s.W, n)
	}
	return nil
}

// EncodeImage lays the image out row-major: coefficient i·W+j holds
// pixel (i, j).
func EncodeImage(p bfv.Params, s Conv2DShape, img [][]uint64) (*bfv.Plaintext, error) {
	if err := s.Validate(p.R.N); err != nil {
		return nil, err
	}
	if len(img) != s.H {
		return nil, fmt.Errorf("core: image has %d rows, want %d", len(img), s.H)
	}
	pt := p.NewPlaintext()
	for i := 0; i < s.H; i++ {
		if len(img[i]) != s.W {
			return nil, fmt.Errorf("core: image row %d has %d pixels, want %d", i, len(img[i]), s.W)
		}
		for j := 0; j < s.W; j++ {
			pt.Coeffs[i*s.W+j] = p.T.Reduce(img[i][j])
		}
	}
	return pt, nil
}

// EncodeKernel mirrors the kernel: coefficient (KH-1-a)·W + (KW-1-b) holds
// K[a][b], so that the product coefficient at (i+KH-1)·W + (j+KW-1) equals
// the valid convolution output at (i, j).
func EncodeKernel(p bfv.Params, s Conv2DShape, k [][]uint64) (*bfv.Plaintext, error) {
	if err := s.Validate(p.R.N); err != nil {
		return nil, err
	}
	if len(k) != s.KH {
		return nil, fmt.Errorf("core: kernel has %d rows, want %d", len(k), s.KH)
	}
	pt := p.NewPlaintext()
	for a := 0; a < s.KH; a++ {
		if len(k[a]) != s.KW {
			return nil, fmt.Errorf("core: kernel row %d has %d entries, want %d", a, len(k[a]), s.KW)
		}
		for b := 0; b < s.KW; b++ {
			pt.Coeffs[(s.KH-1-a)*s.W+(s.KW-1-b)] = p.T.Reduce(k[a][b])
		}
	}
	return pt, nil
}

// Conv2D convolves an encrypted image (augmented basis, from
// p.Encrypt(EncodeImage...)) with a cleartext kernel: one MULTPOLY plus a
// RESCALE, exactly the DOTPRODUCT pipeline reused for a different encoding.
func Conv2D(p bfv.Params, s Conv2DShape, ctImg *rlwe.Ciphertext, kernel [][]uint64) (*rlwe.Ciphertext, error) {
	kpt, err := EncodeKernel(p, s, kernel)
	if err != nil {
		return nil, err
	}
	return p.MulPlainRescale(ctImg, kpt), nil
}

// DecodeConvOutput reads the OutH×OutW valid outputs from a decrypted
// convolution result.
func DecodeConvOutput(p bfv.Params, s Conv2DShape, pt *bfv.Plaintext) [][]uint64 {
	out := make([][]uint64, s.OutH())
	for i := range out {
		out[i] = make([]uint64, s.OutW())
		for j := range out[i] {
			out[i][j] = pt.Coeffs[(i+s.KH-1)*s.W+(j+s.KW-1)]
		}
	}
	return out
}
