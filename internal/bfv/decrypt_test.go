package bfv_test

// The RNS-native decryption rounding against the big-integer routine it
// replaced, which lives on as the oracle: ref.RoundToT over ref.Compose.
// External package because ref imports bfv.

import (
	"math/big"
	"math/rand"
	"testing"

	"cham/internal/apps/heterolr"
	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/mod"
	"cham/internal/ref"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

func decryptParams(tb testing.TB, n int, t uint64) bfv.Params {
	tb.Helper()
	p, err := bfv.NewParams(ring.MustNew(n, mod.ChamModuli()), 2, 21, t)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// oracle decrypts ct the way bfv.Decrypt used to: compose the phase over
// the integers, centre it, and round t·v/Q half up in big.Int.
func oracle(p bfv.Params, ct *rlwe.Ciphertext, sk *rlwe.SecretKey) []uint64 {
	moduli := mod.ChamModuli()[:ct.Levels()]
	phase := ref.Compose(p.Phase(ct, sk), moduli)
	out := make([]uint64, phase.N())
	for i := range out {
		out[i] = ref.RoundToT(phase.Centered(i), phase.Q, p.T.Q)
	}
	return out
}

func checkDecrypt(t *testing.T, p bfv.Params, ct *rlwe.Ciphertext, sk *rlwe.SecretKey, what string) {
	t.Helper()
	got, want := p.Decrypt(ct, sk).Coeffs, oracle(p, ct, sk)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: coefficient %d decrypts to %d, big.Int rounding gives %d", what, i, got[i], want[i])
		}
	}
}

// planted returns a ciphertext whose phase is exactly the given integers
// (reduced mod Q): b carries them limb by limb and a is zero.
func planted(p bfv.Params, levels int, vals []*big.Int) *rlwe.Ciphertext {
	ct := &rlwe.Ciphertext{B: p.R.NewPoly(levels), A: p.R.NewPoly(levels)}
	rem := new(big.Int)
	for l := 0; l < levels; l++ {
		q := new(big.Int).SetUint64(p.R.Moduli[l].Q)
		for i, v := range vals {
			ct.B.Coeffs[l][i] = rem.Mod(v, q).Uint64()
		}
	}
	return ct
}

// TestDecryptMatchesBigInt plants phases on both sides of the rounding
// boundaries (2j+1)·Q/2t and at the ends and the middle of [0, Q), at every
// limb count and both plaintext moduli in use, and then decrypts what the
// KATs decrypt.
func TestDecryptMatchesBigInt(t *testing.T) {
	const n = 256
	for _, tq := range []uint64{bfv.DefaultT, heterolr.T1} {
		p := decryptParams(t, n, tq)
		sk := p.KeyGen(rand.New(rand.NewSource(1)))
		// Every boundary at t = 65537; a twelfth of T1's 786,433.
		stride := uint64(1)
		if tq != bfv.DefaultT {
			stride = 12
		}
		if testing.Short() {
			stride *= 17
		}
		for levels := 1; levels <= 3; levels++ {
			q := p.R.Modulus(levels)
			half := new(big.Int).Rsh(q, 1)
			vals := []*big.Int{
				big.NewInt(0), big.NewInt(1), new(big.Int).Sub(q, big.NewInt(1)),
				new(big.Int).Sub(half, big.NewInt(1)), half, new(big.Int).Add(half, big.NewInt(1)),
			}
			flush := func() {
				for len(vals)%n != 0 {
					vals = append(vals, big.NewInt(0))
				}
				for off := 0; off < len(vals); off += n {
					checkDecrypt(t, p, planted(p, levels, vals[off:off+n]), sk, "planted phase")
				}
				vals = vals[:0]
			}
			twoT := new(big.Int).SetUint64(2 * tq)
			for j := uint64(0); j < tq; j += stride {
				b := new(big.Int).SetUint64(2*j + 1)
				b.Mul(b, q).Quo(b, twoT)
				for d := int64(-1); d <= 1; d++ {
					vals = append(vals, new(big.Int).Add(b, big.NewInt(d)))
				}
				if len(vals) >= 64*n {
					flush()
				}
			}
			flush()
		}
	}

	// What the KATs decrypt: a packed extraction and an HMVP result, built
	// as internal/kat builds them.
	p, err := bfv.NewChamParams(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1001))
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, 16)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]uint64, n)
	for i := range vec {
		vec[i] = rng.Uint64() % p.T.Q
	}
	ct := p.Encrypt(rng, sk, p.EncodeVector(vec), p.NormalLevels)
	checkDecrypt(t, p, ct, sk, "fresh ciphertext")
	lwes := make([]*lwe.Ciphertext, 16)
	for i := range lwes {
		lwes[i] = lwe.Extract(p, ct, i)
	}
	packed, err := lwe.PackLWEs(p, lwes, keys)
	if err != nil {
		t.Fatal(err)
	}
	checkDecrypt(t, p, packed, sk, "pack KAT")

	rng = rand.New(rand.NewSource(2024))
	sk = p.KeyGen(rng)
	ev, err := core.NewEvaluator(p, rng, sk, 5)
	if err != nil {
		t.Fatal(err)
	}
	A := make([][]uint64, 5)
	for i := range A {
		A[i] = make([]uint64, 300)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % p.T.Q
		}
	}
	v := make([]uint64, 300)
	for j := range v {
		v[j] = rng.Uint64() % p.T.Q
	}
	ctV := core.EncryptVector(p, rng, sk, v)
	for _, c := range ctV {
		checkDecrypt(t, p, c, sk, "augmented vector chunk")
	}
	res, err := ev.MatVec(A, ctV)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Packed {
		checkDecrypt(t, p, c, sk, "hmvp KAT")
	}
}

// FuzzDecryptRound plants one arbitrary phase (four words, reduced mod Q)
// per execution and holds its rounding to the big.Int oracle.
func FuzzDecryptRound(f *testing.F) {
	f.Add(uint8(2), false, uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(3), true, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint8(1), false, uint64(0), uint64(0), uint64(0), uint64(mod.ChamQ0/2+1))
	f.Add(uint8(2), true, uint64(0), uint64(0), uint64(1)<<5, uint64(12345))
	const n = 16
	params := [2]bfv.Params{decryptParams(f, n, bfv.DefaultT), decryptParams(f, n, heterolr.T1)}
	f.Fuzz(func(t *testing.T, lv uint8, t1 bool, w3, w2, w1, w0 uint64) {
		p := params[0]
		if t1 {
			p = params[1]
		}
		levels := int(lv)%3 + 1
		sk := p.KeyGen(rand.New(rand.NewSource(1)))
		x := new(big.Int)
		for _, w := range []uint64{w3, w2, w1, w0} {
			x.Lsh(x, 64).Add(x, new(big.Int).SetUint64(w))
		}
		q := p.R.Modulus(levels)
		x.Mod(x, q)
		// The fuzzed value, its neighbours and its mirror image.
		vals := make([]*big.Int, n)
		for i := range vals {
			vals[i] = big.NewInt(0)
		}
		vals[0] = x
		vals[1] = new(big.Int).Add(x, big.NewInt(1))
		vals[2] = new(big.Int).Sub(x, big.NewInt(1))
		vals[3] = new(big.Int).Sub(q, x)
		checkDecrypt(t, p, planted(p, levels, vals), sk, "fuzzed phase")
	})
}
