package codec

import (
	"math/rand"
	"testing"

	"cham/internal/bfv"
	"cham/internal/mod"
	"cham/internal/ring"
)

func setup(tb testing.TB, n int) (bfv.Params, *rand.Rand) {
	tb.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p, rand.New(rand.NewSource(1))
}

func TestPolyRoundTrip(t *testing.T) {
	p, rng := setup(t, 64)
	for _, levels := range []int{1, 2, 3} {
		for _, nttDomain := range []bool{false, true} {
			poly := p.R.NewPoly(levels)
			p.R.UniformPoly(rng, poly)
			poly.IsNTT = nttDomain
			buf := EncodePoly(p.R, poly)
			back, err := DecodePoly(p.R, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(poly) {
				t.Fatalf("levels=%d ntt=%v: round trip differs", levels, nttDomain)
			}
		}
	}
}

func TestPolyDecodeRejects(t *testing.T) {
	p, rng := setup(t, 64)
	poly := p.R.NewPoly(2)
	p.R.UniformPoly(rng, poly)
	good := EncodePoly(p.R, poly)

	cases := map[string]func([]byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:4] },
		"bad magic":        func(b []byte) []byte { c := clone(b); c[0] ^= 0xFF; return c },
		"bad version":      func(b []byte) []byte { c := clone(b); c[4] = 99; return c },
		"wrong kind":       func(b []byte) []byte { c := clone(b); c[5] = KindCiphertext; return c },
		"huge logN":        func(b []byte) []byte { c := clone(b); c[8] = 40; return c },
		"wrong degree":     func(b []byte) []byte { c := clone(b); c[8] = 3; return c },
		"zero levels":      func(b []byte) []byte { c := clone(b); c[7] = 0; return c },
		"too many levels":  func(b []byte) []byte { c := clone(b); c[7] = 9; return c },
		"short payload":    func(b []byte) []byte { return b[:len(b)-8] },
		"long payload":     func(b []byte) []byte { return append(clone(b), 0) },
		"residue overflow": func(b []byte) []byte {
			c := clone(b)
			for i := 9; i < 17; i++ {
				c[i] = 0xFF
			}
			return c
		},
	}
	for name, corrupt := range cases {
		if _, err := DecodePoly(p.R, corrupt(good)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The pristine buffer still decodes (corruptions copied, not mutated).
	if _, err := DecodePoly(p.R, good); err != nil {
		t.Fatalf("pristine buffer rejected: %v", err)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestCiphertextRoundTrip(t *testing.T) {
	p, rng := setup(t, 64)
	sk := p.KeyGen(rng)
	pt := p.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = rng.Uint64() % p.T.Q
	}
	ct := p.Encrypt(rng, sk, pt, 3)
	buf := EncodeCiphertext(p.R, ct)
	if want := headerLen + 2*polyBytes(3, p.R.N); len(buf) != want {
		t.Errorf("wire size %d, accounting says %d", len(buf), want)
	}
	back, err := DecodeCiphertext(p.R, buf)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded ciphertext must decrypt identically.
	dec := p.Decrypt(back, sk)
	for i := range pt.Coeffs {
		if dec.Coeffs[i] != pt.Coeffs[i] {
			t.Fatalf("decoded ciphertext decrypts wrong at %d", i)
		}
	}
	// Mismatched halves are rejected.
	part := (len(buf) - 9) / 2
	bad := clone(buf)
	bad[9+6] |= 1 // flip the NTT flag of the b part
	if _, err := DecodeCiphertext(p.R, bad); err == nil {
		t.Error("inconsistent halves accepted")
	}
	_ = part
}

func TestSwitchingKeyRoundTrip(t *testing.T) {
	p, rng := setup(t, 32)
	sk := p.KeyGen(rng)
	sk2 := p.KeyGen(rng)
	key := p.SwitchingKeyGen(rng, sk, sk2.Value)
	buf := EncodeSwitchingKey(p.R, key)
	back, err := DecodeSwitchingKey(p.R, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Bs) != len(key.Bs) {
		t.Fatal("digit count changed")
	}
	for j := range key.Bs {
		if !back.Bs[j].Equal(key.Bs[j]) || !back.As[j].Equal(key.As[j]) {
			t.Fatalf("digit %d differs", j)
		}
	}
	// A decoded key must actually switch: run it end to end.
	ct := p.EncryptZeroSym(rng, sk2, 2)
	switched := p.KeySwitch(ct, back)
	if bits := p.NoiseBits(switched, sk, nil); bits > 15 {
		t.Errorf("decoded key produced %f noise bits", bits)
	}
	// Zero-digit keys rejected.
	bad := clone(buf)
	bad[6] = 0
	if _, err := DecodeSwitchingKey(p.R, bad); err == nil {
		t.Error("zero-digit key accepted")
	}
}

// TestCrossRingRejected: objects from a different ring must not decode.
func TestCrossRingRejected(t *testing.T) {
	p64, rng := setup(t, 64)
	r32 := ring.MustNew(32, mod.ChamModuli())
	poly := p64.R.NewPoly(2)
	p64.R.UniformPoly(rng, poly)
	buf := EncodePoly(p64.R, poly)
	if _, err := DecodePoly(r32, buf); err == nil {
		t.Error("64-degree poly decoded in a 32-degree ring")
	}
}

// TestDecodeFuzz: random garbage must never decode successfully (and never
// panic).
func TestDecodeFuzz(t *testing.T) {
	p, rng := setup(t, 32)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		buf := make([]byte, n)
		rng.Read(buf)
		if _, err := DecodePoly(p.R, buf); err == nil {
			t.Fatalf("trial %d: garbage decoded as poly", trial)
		}
		if _, err := DecodeCiphertext(p.R, buf); err == nil {
			t.Fatalf("trial %d: garbage decoded as ciphertext", trial)
		}
		if _, err := DecodeSwitchingKey(p.R, buf); err == nil {
			t.Fatalf("trial %d: garbage decoded as key", trial)
		}
	}
}

// TestKeyBudgetMatchesURAM cross-checks the resource model against the
// wire format: the 12 packing keys of a full 4096-row HMVP must fit the
// pack unit's URAM allocation (150 blocks per engine) within a small
// residency factor — keys stream between URAM and DDR, but the working
// set has to fit.
func TestKeyBudgetMatchesURAM(t *testing.T) {
	p, rng := setup(t, 4096)
	sk := p.KeyGen(rng)
	perKey := len(EncodeSwitchingKey(p.R, p.SwitchingKeyGen(rng, sk, sk.Value)))
	total := 12 * perKey // log2(4096) packing keys
	uramBytes := 150 * 288 * 1024 / 8
	if total > 2*uramBytes {
		t.Errorf("12 packing keys need %d bytes, more than 2x the %d-byte URAM budget", total, uramBytes)
	}
	if total < uramBytes/4 {
		t.Errorf("key set (%d bytes) implausibly small vs URAM budget (%d)", total, uramBytes)
	}
}
