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

// encodeRowDiv is EncodeRow as it was written on hardware division
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
// the row encoding leaves its one-word path.
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

// TestEncodeAndLiftMatchOldLoops drives EncodeRow and LiftInto against the
// loops they replaced, and Prepare's row path — EncodeRowInto into the
// first limb, then ring.NTTLift from t — against the NTT of Lift of
// EncodeRow at every limb count: narrow and wide t, unit, small, large and unreduced
// scales, rows with zeros, unreduced (≥ t) and boundary entries, full and
// ragged lengths — on the host's kernels and on the Go loops.
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
						switch rng.Intn(7) {
						case 0:
							a[j] = 0
						case 1:
							a[j] = tq - 1
						case 2:
							a[j] = tq/2 + uint64(rng.Intn(2))
						case 3:
							a[j] = rng.Uint64() // unreduced
						case 4:
							a[j] = tq + uint64(rng.Intn(2)) // unreduced, at the boundary
						default:
							a[j] = rng.Uint64() % tq
						}
					}
					got, want := p.EncodeRow(a, scale), p.NewPlaintext()
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
					for levels := 1; levels <= p.R.Levels(); levels++ {
						direct := p.R.NewPoly(levels)
						for _, row := range direct.Coeffs {
							for i := range row {
								row[i] = ^uint64(0) // must be overwritten
							}
						}
						p.EncodeRowInto(direct.Coeffs[0], a, scale)
						p.R.NTTLift(direct, direct.Coeffs[0], tq)
						want := p.Lift(p.EncodeRow(a, scale), levels)
						p.R.NTT(want)
						if !direct.Equal(want) {
							t.Fatalf("t=%d len=%d scale=%d levels=%d: EncodeRowInto + NTTLift differs from the NTT of Lift of EncodeRow", tq, length, scale, levels)
						}
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

// TestHotPathPreconditions: an empty or overlong row, a lift target
// without N words per limb and, in LiftInto, an out-of-range plaintext
// coefficient are refused by name, not by an index error or a silently
// unreduced residue. Encrypt keeps taking such a coefficient: it
// scales through MulShoup, which reduces any word.
func TestHotPathPreconditions(t *testing.T) {
	p := testParams(t, 16)
	row := make([]uint64, p.R.N)
	mustPanic(t, "bfv: empty row", func() { p.EncodeRowInto(row, nil, 1) })
	mustPanic(t, "bfv: empty row", func() { p.EncodeRow([]uint64{}, 1) })
	long := make([]uint64, p.R.N+1)
	mustPanic(t, "bfv: row longer than N", func() { p.EncodeRowInto(row, long, 1) })
	mustPanic(t, "bfv: row longer than N", func() { p.EncodeRow(long, 1) })
	short := p.R.NewPoly(3)
	short.Coeffs[2] = short.Coeffs[2][:p.R.N-8]
	mustPanic(t, "ring: lift level mismatch", func() { p.R.NTTLift(short, row, p.T.Q) })
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

// TestEncodeRowIntoTable holds EncodeRowInto to Eq. 1 computed on big
// integers — c[0] = a[0]·s, c[N−j] = −a[j]·s mod t, every other word 0,
// s = scale mod t (1 for scale 0) — on the host's kernel and on the Go
// loop: lengths about the kernel's 8-word blocks (the gap, and the body's
// tail the Go loop finishes), an entry at or above t (where the kernel
// stops and the Go loop goes on), scales 0 and at or above t, and three
// t: CHAM's, the largest odd t below 2^32 the kernel takes, and one above
// 2^32 it declines.
func TestEncodeRowIntoTable(t *testing.T) {
	const n = 64
	below32, err := NewParams(ring.MustNew(n, mod.ChamModuli()), 2, 21, 1<<32-5)
	if err != nil {
		t.Fatal(err)
	}
	params := []Params{testParams(t, n), below32, wideParams(t, n)}
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for _, p := range params {
			tq := p.T.Q
			for _, length := range []int{1, 7, 8, 9, 17, n - 1, n} {
				for _, scale := range []uint64{0, 1, p.InvPow2(3), tq - 1, tq, tq + 3, ^uint64(0)} {
					for _, over := range []bool{false, true} {
						a := make([]uint64, length)
						for j := range a {
							a[j] = rng.Uint64() % tq
						}
						if over { // entries at and above t, early in the body's first block and in its last
							a[length-1] = tq + uint64(rng.Intn(3))
							a[length/2] = ^uint64(0)
						}
						c := make([]uint64, n)
						for i := range c {
							c[i] = ^uint64(0) // must be overwritten
						}
						p.EncodeRowInto(c, a, scale)
						bt := new(big.Int).SetUint64(tq)
						s := new(big.Int).SetUint64(scale)
						if scale == 0 {
							s.SetInt64(1)
						}
						for i, got := range c {
							want := new(big.Int)
							switch {
							case i == 0:
								want.SetUint64(a[0])
							case i > n-length:
								want.Neg(new(big.Int).SetUint64(a[n-i]))
							}
							want.Mod(want.Mul(want, s), bt)
							if got != want.Uint64() {
								t.Fatalf("t=%d len=%d scale=%d over=%v: c[%d] = %d, want %v", tq, length, scale, over, i, got, want)
							}
						}
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

// TestScalingConstants holds the cached Δ mod q_l to the big-integer
// ⌊Q/t⌋ at every limb count, and NewParams to its refusal of a basis the
// two-word rounding cannot hold.
func TestScalingConstants(t *testing.T) {
	for _, p := range []Params{testParams(t, 16), wideParams(t, 16)} {
		for levels := 1; levels <= p.R.Levels(); levels++ {
			delta := p.Delta(levels)
			for l := 0; l < levels; l++ {
				q := new(big.Int).SetUint64(p.R.Moduli[l].Q)
				if want := p.R.NewScalar(l, new(big.Int).Mod(delta, q).Uint64()); p.levels[levels-1].limbs[l].delta != want {
					t.Errorf("t=%d levels=%d limb %d: cached Δ = %+v, want %+v", p.T.Q, levels, l, p.levels[levels-1].limbs[l].delta, want)
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
