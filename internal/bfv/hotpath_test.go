package bfv

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"cham/internal/mod"
	"cham/internal/ring"
	"cham/internal/vec"
)

// encodeRowDiv is EncodeRowInto as it was written on hardware division
// (T.Mul → Reduce128), kept as the oracle for the Barrett forms.
func encodeRowDiv(p Params, pt *Plaintext, a []uint64, scale uint64) {
	n := p.R.N
	if scale == 0 {
		scale = 1
	}
	for i := range pt.Coeffs {
		pt.Coeffs[i] = 0
	}
	pt.Coeffs[0] = p.T.Mul(p.T.Reduce(a[0]), scale)
	for j := 1; j < len(a); j++ {
		pt.Coeffs[n-j] = p.T.Mul(p.T.Neg(p.T.Reduce(a[j])), scale)
	}
}

// liftBranchy is LiftInto as it was written with a data-dependent branch.
func liftBranchy(p Params, out *ring.Poly, pt *Plaintext) {
	t := p.T.Q
	for l := range out.Coeffs {
		q := p.R.Moduli[l].Q
		for i, x := range pt.Coeffs {
			if x > t/2 {
				out.Coeffs[l][i] = q - t + x
			} else {
				out.Coeffs[l][i] = x
			}
		}
	}
}

// wideParams has a plaintext modulus above 2^32 (under 50-bit limbs), so
// EncodeRowInto leaves its one-word path.
func wideParams(tb testing.TB, n int) Params {
	tb.Helper()
	qs, err := mod.NTTFriendlyPrimes(50, uint64(n), 2)
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := mod.NTTFriendlyPrimes(41, uint64(n), 1)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewParams(ring.MustNew(n, qs), 2, 21, ts[0])
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestEncodeAndLiftMatchOldLoops drives EncodeRowInto and LiftInto against
// the loops they replaced: narrow and wide t, unit, small, large and
// unreduced scales, rows with zeros, unreduced and boundary entries, full
// and ragged lengths — on the host's kernels and on the Go loops.
func TestEncodeAndLiftMatchOldLoops(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		for _, p := range []Params{testParams(t, 64), wideParams(t, 64)} {
			n, tq := p.R.N, p.T.Q
			scales := []uint64{0, 1, 2, p.InvPow2(5), tq - 1, tq, tq + 1, 3*tq + 7, ^uint64(0)}
			for _, length := range []int{1, 2, n / 2, n - 1, n} {
				for _, scale := range scales {
					a := make([]uint64, length)
					for j := range a {
						switch rng.Intn(6) {
						case 0:
							a[j] = 0
						case 1:
							a[j] = tq - 1
						case 2:
							a[j] = tq/2 + uint64(rng.Intn(2))
						case 3:
							a[j] = rng.Uint64() // unreduced
						default:
							a[j] = rng.Uint64() % tq
						}
					}
					got, want := p.NewPlaintext(), p.NewPlaintext()
					for i := range got.Coeffs {
						got.Coeffs[i] = ^uint64(0) // must be overwritten
					}
					p.EncodeRowInto(got, a, scale)
					encodeRowDiv(p, want, a, scale)
					for i := range want.Coeffs {
						if got.Coeffs[i] != want.Coeffs[i] {
							t.Fatalf("t=%d len=%d scale=%d: coefficient %d encodes to %d, want %d",
								tq, length, scale, i, got.Coeffs[i], want.Coeffs[i])
						}
					}
					lifted, ref := p.R.NewPoly(p.R.Levels()), p.R.NewPoly(p.R.Levels())
					lifted.IsNTT = true // must be reset
					p.LiftInto(lifted, got)
					liftBranchy(p, ref, want)
					if !lifted.Equal(ref) {
						t.Fatalf("t=%d len=%d scale=%d: LiftInto differs from the branchy loop", tq, length, scale)
					}
				}
			}
		}
	}
	t.Run("dispatched", run)
	t.Run("generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		run(t)
	})
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if s, _ := r.(string); r == nil || !strings.Contains(s, want) {
			t.Errorf("panic %v, want one mentioning %q", r, want)
		}
	}()
	f()
}

// TestHotPathPreconditions: an empty row and, in LiftInto, an out-of-range
// plaintext coefficient are refused by name, not by an index error or a
// silently unreduced residue. Encrypt keeps taking such a coefficient: it
// scales through MulShoup, which reduces any word.
func TestHotPathPreconditions(t *testing.T) {
	p := testParams(t, 16)
	mustPanic(t, "bfv: empty row", func() { p.EncodeRowInto(p.NewPlaintext(), nil, 1) })
	mustPanic(t, "bfv: empty row", func() { p.EncodeRow([]uint64{}, 1) })
	rng := rand.New(rand.NewSource(1))
	sk := p.KeyGen(rng)
	for _, bad := range []uint64{p.T.Q, p.T.Q + 1, 1 << 52, 1 << 63, ^uint64(0)} {
		pt := p.NewPlaintext()
		pt.Coeffs[p.R.N-1] = bad
		const msg = "bfv: plaintext coefficient out of range"
		mustPanic(t, msg, func() { p.LiftInto(p.R.NewPoly(3), pt) })
	}
	over := p.NewPlaintext()
	over.Coeffs[3] = p.T.Q + 5
	if got := p.Decrypt(p.Encrypt(rng, sk, over, 2), sk).Coeffs[3]; got != 5 {
		t.Errorf("Encrypt of t+5 decrypts to %d, want 5", got)
	}
	ok := p.NewPlaintext()
	ok.Coeffs[0], ok.Coeffs[1] = p.T.Q-1, 0
	p.LiftInto(p.R.NewPoly(3), ok)
}

// TestScalingConstants holds the cached Δ mod q_l to the big-integer
// ⌊Q/t⌋ at every limb count, and NewParams to its refusal of a basis the
// two-word rounding cannot hold.
func TestScalingConstants(t *testing.T) {
	for _, p := range []Params{testParams(t, 16), wideParams(t, 16)} {
		for levels := 1; levels <= p.R.Levels(); levels++ {
			delta := p.Delta(levels)
			for l := 0; l < levels; l++ {
				q := new(big.Int).SetUint64(p.R.Moduli[l].Q)
				if want := new(big.Int).Mod(delta, q).Uint64(); p.levels[levels-1].limbs[l].delta != want {
					t.Errorf("t=%d levels=%d limb %d: cached Δ = %d, want %d", p.T.Q, levels, l, p.levels[levels-1].limbs[l].delta, want)
				}
			}
		}
	}
	qs, err := mod.NTTFriendlyPrimes(45, 16, 3) // Q ≈ 2^135
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewParams(ring.MustNew(16, qs), 2, 21, DefaultT); err == nil || !strings.Contains(err.Error(), "too wide") {
		t.Errorf("135-bit basis: NewParams error %v, want a too-wide refusal", err)
	}
}
