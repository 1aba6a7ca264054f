package wire

import (
	"bytes"
	"slices"
	"testing"

	"cham/internal/exp"
	"cham/internal/lwe"
	"cham/internal/mod"
	"cham/internal/ring"
	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// decodeCiphertext reads exactly one ciphertext encoding from b.
func decodeCiphertext(r *ring.Ring, b []byte) (*rlwe.Ciphertext, error) {
	d := NewReader(b)
	ct := d.readCiphertext(r)
	return ct, d.Done()
}

// decodeSwitchingKey reads exactly one switching-key encoding from b.
func decodeSwitchingKey(r *ring.Ring, b []byte) (*rlwe.SwitchingKey, error) {
	d := NewReader(b)
	k := d.readSwitchingKey(r)
	return k, d.Done()
}

func uniformCiphertext(t *testing.T, r *ring.Ring, levels int, ntt bool) *rlwe.Ciphertext {
	t.Helper()
	rng := testutil.NewRand(t)
	ct := &rlwe.Ciphertext{B: r.NewPoly(levels), A: r.NewPoly(levels)}
	r.UniformPoly(rng, ct.B)
	r.UniformPoly(rng, ct.A)
	ct.B.IsNTT, ct.A.IsNTT = ntt, ntt
	return ct
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// TestCiphertextEncodingRoundTrip: every level count, in both domains,
// comes back bit for bit, at the size ciphertextLen accounts for.
func TestCiphertextEncodingRoundTrip(t *testing.T) {
	p := testParams(t, 64)
	for levels := 1; levels <= p.R.Levels(); levels++ {
		for _, ntt := range []bool{false, true} {
			ct := uniformCiphertext(t, p.R, levels, ntt)
			buf := appendCiphertext(nil, p.R, ct)
			if len(buf) != ciphertextLen(p.R, levels) {
				t.Fatalf("levels=%d: %d bytes, ciphertextLen says %d", levels, len(buf), ciphertextLen(p.R, levels))
			}
			back, err := decodeCiphertext(p.R, buf)
			if err != nil {
				t.Fatalf("levels=%d ntt=%v: %v", levels, ntt, err)
			}
			if !sameCiphertext(back, ct) {
				t.Fatalf("levels=%d ntt=%v: round trip differs", levels, ntt)
			}
		}
	}
}

// TestEncryptedCiphertextRoundTrip: a decoded ciphertext decrypts to what
// was encrypted.
func TestEncryptedCiphertextRoundTrip(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	pt := p.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = rng.Uint64() % p.T.Q
	}
	back, err := decodeCiphertext(p.R, appendCiphertext(nil, p.R, p.Encrypt(rng, sk, pt, 3)))
	if err != nil {
		t.Fatal(err)
	}
	dec := p.Decrypt(back, sk)
	for i := range pt.Coeffs {
		if dec.Coeffs[i] != pt.Coeffs[i] {
			t.Fatalf("decoded ciphertext decrypts wrong at %d", i)
		}
	}
}

func TestCiphertextDecodeRejects(t *testing.T) {
	p := testParams(t, 64)
	good := appendCiphertext(nil, p.R, uniformCiphertext(t, p.R, 2, true))
	w := limbWidth(p.R, 0)
	ff := func(c []byte, at int) []byte {
		for i := at; i < at+w; i++ {
			c[i] = 0xFF
		}
		return c
	}
	// q_0 itself at its 5 bytes: the smallest residue that is not canonical.
	q0 := func(c []byte) []byte {
		putWords(c[2:2+w], []uint64{p.R.Moduli[0].Q}, w)
		return c
	}
	cases := map[string]func([]byte) []byte{
		"empty":                      func(b []byte) []byte { return b[:0] },
		"truncated header":           func(b []byte) []byte { return b[:1] },
		"zero levels":                func(b []byte) []byte { c := clone(b); c[0] = 0; return c },
		"too many levels":            func(b []byte) []byte { c := clone(b); c[0] = byte(p.R.Levels() + 1); return c },
		"bad domain flag":            func(b []byte) []byte { c := clone(b); c[1] = 2; return c },
		"short payload":              func(b []byte) []byte { return b[:len(b)-w] },
		"truncated last coefficient": func(b []byte) []byte { return b[:len(b)-1] },
		"residue equal to q":         func(b []byte) []byte { return q0(clone(b)) },
		"long payload":               func(b []byte) []byte { return append(clone(b), 0) },
		"residue overflow B":         func(b []byte) []byte { return ff(clone(b), 2) },
		"residue overflow A":         func(b []byte) []byte { return ff(clone(b), len(b)-w) },
	}
	for name, corrupt := range cases {
		if _, err := decodeCiphertext(p.R, corrupt(good)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The pristine buffer still decodes (corruptions copied, not mutated).
	if _, err := decodeCiphertext(p.R, good); err != nil {
		t.Fatalf("pristine buffer rejected: %v", err)
	}
}

func TestSwitchingKeyRoundTrip(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	sk2 := p.KeyGen(rng)
	key := p.SwitchingKeyGen(rng, sk, sk2.Value)
	buf := appendSwitchingKey(nil, p.R, key)
	if len(buf) != switchingKeyLen(p.R, key) {
		t.Fatalf("%d bytes, switchingKeyLen says %d", len(buf), switchingKeyLen(p.R, key))
	}
	back, err := decodeSwitchingKey(p.R, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Bs) != len(key.Bs) || len(back.BsMont) != len(key.Bs) || len(back.AsMont) != len(key.As) {
		t.Fatal("digit count changed, or the Montgomery images were not rebuilt")
	}
	for j := range key.Bs {
		if !back.Bs[j].Equal(key.Bs[j]) || !back.As[j].Equal(key.As[j]) {
			t.Fatalf("digit %d differs", j)
		}
		if !back.BsMont[j].Equal(key.BsMont[j]) || !back.AsMont[j].Equal(key.AsMont[j]) {
			t.Fatalf("digit %d: the rebuilt Montgomery image differs from the original's", j)
		}
	}
	// A decoded key must actually switch: run it end to end.
	ct := p.EncryptZeroSym(rng, sk2, 2)
	switched := p.KeySwitch(ct, back)
	if bits := p.NoiseBits(switched, sk, nil); bits > 15 {
		t.Errorf("decoded key produced %f noise bits", bits)
	}
	// Zero-digit keys and digits below the full level are rejected.
	bad := clone(buf)
	bad[0] = 0
	if _, err := decodeSwitchingKey(p.R, bad); err == nil {
		t.Error("zero-digit key accepted")
	}
	bad = clone(buf)
	bad[1] = byte(p.R.Levels() - 1)
	if _, err := decodeSwitchingKey(p.R, bad); err == nil {
		t.Error("key digit below the full level accepted")
	}
}

// TestCrossRingRejected: a ciphertext from a ring of another degree does
// not decode, alone or inside an Apply, either way round.
func TestCrossRingRejected(t *testing.T) {
	p64 := testParams(t, 64)
	r32 := ring.MustNew(32, mod.ChamModuli())
	ct64 := uniformCiphertext(t, p64.R, 2, false)
	if _, err := decodeCiphertext(r32, appendCiphertext(nil, p64.R, ct64)); err == nil {
		t.Error("a 64-degree ciphertext decoded in a 32-degree ring")
	}
	if _, err := DecodeApply(r32, EncodeApply(p64.R, Apply{Vector: []*rlwe.Ciphertext{ct64}})); err == nil {
		t.Error("an Apply of a 64-degree ciphertext decoded in a 32-degree ring")
	}
	ct32 := uniformCiphertext(t, r32, 2, false)
	if _, err := DecodeApply(p64.R, EncodeApply(r32, Apply{Vector: []*rlwe.Ciphertext{ct32}})); err == nil {
		t.Error("an Apply of a 32-degree ciphertext decoded in a 64-degree ring")
	}
}

// TestDecodeGarbage: random bytes never decode as a ciphertext or a
// switching key (and never panic).
func TestDecodeGarbage(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		if _, err := decodeCiphertext(p.R, buf); err == nil {
			t.Fatalf("trial %d: garbage decoded as a ciphertext", trial)
		}
		if _, err := decodeSwitchingKey(p.R, buf); err == nil {
			t.Fatalf("trial %d: garbage decoded as a switching key", trial)
		}
	}
}

// TestKeyBudgetMatchesURAM cross-checks the resource model against the
// wire format: the 12 packing keys of a full 4096-row HMVP must fit the
// pack unit's URAM allocation (150 blocks per engine) within a small
// residency factor — keys stream between URAM and DDR, but the working
// set has to fit.
func TestKeyBudgetMatchesURAM(t *testing.T) {
	p := testParams(t, 4096)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	perKey := len(appendSwitchingKey(nil, p.R, p.SwitchingKeyGen(rng, sk, sk.Value)))
	total := 12 * perKey // log2(4096) packing keys
	uramBytes := 150 * 288 * 1024 / 8
	if total > 2*uramBytes {
		t.Errorf("12 packing keys need %d bytes, more than 2x the %d-byte URAM budget", total, uramBytes)
	}
	if total < uramBytes/4 {
		t.Errorf("key set (%d bytes) implausibly small vs URAM budget (%d)", total, uramBytes)
	}
}

// TestEncodingsWithinModel: the coefficients of every encoded ciphertext
// and switching key take no more bytes than exp.PolyBytes charges for the
// same polynomials — the model's transfer sizes are the program's.
func TestEncodingsWithinModel(t *testing.T) {
	p := testParams(t, 64)
	n := p.R.N
	for levels := 1; levels <= p.R.Levels(); levels++ {
		body := len(appendCiphertext(nil, p.R, uniformCiphertext(t, p.R, levels, true))) - 2 // less levels and domain
		if model := exp.PolyBytes(n, 2*levels); int64(body) > model {
			t.Errorf("a %d-level ciphertext's coefficients take %d bytes, the model charges %d", levels, body, model)
		}
	}
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	key := p.SwitchingKeyGen(rng, sk, p.KeyGen(rng).Value)
	digits := len(key.Bs)
	body := len(appendSwitchingKey(nil, p.R, key)) - 1 - 2*digits // less the digit count and each digit's header
	if model := exp.PolyBytes(n, 2*digits*p.R.Levels()); int64(body) > model {
		t.Errorf("a %d-digit switching key's coefficients take %d bytes, the model charges %d", digits, body, model)
	}
}

// TestLargestMessagesFitFrame: at CHAM's moduli and t, the largest matrix
// a RegisterMatrix may carry and the largest key set a SetupKeys may carry
// encode within DefaultMaxFrame, by the size functions the encoders
// allocate from.
func TestLargestMessagesFitFrame(t *testing.T) {
	p := testParams(t, 4096)
	matrix := registerMatrixLen(4096, MaxMatrixEntries/4096, wordWidth(p.T.Q-1))
	if matrix > int(DefaultMaxFrame) {
		t.Errorf("a %d-entry matrix reduced mod t=%d encodes to %d bytes, over the %d-byte frame limit",
			MaxMatrixEntries, p.T.Q, matrix, DefaultMaxFrame)
	}
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	key := p.SwitchingKeyGen(rng, sk, sk.Value)
	keys := &lwe.PackingKeys{M: p.R.N, Keys: map[int]*rlwe.SwitchingKey{}}
	for k := range MaxKeyEntries {
		keys.Keys[2*k+1] = key // sizes only: one key stands for every entry
	}
	if size := setupKeysLen(p.R, keys); size > int(DefaultMaxFrame) {
		t.Errorf("a %d-key set encodes to %d bytes, over the %d-byte frame limit", MaxKeyEntries, size, DefaultMaxFrame)
	}
	t.Logf("largest matrix %d bytes, largest key set %d bytes, frame limit %d", matrix, setupKeysLen(p.R, keys), DefaultMaxFrame)
}

// TestPutWords5MatchesLoop: the five-byte fast path writes the bytes the
// general loop writes, at row lengths 1 to 17 (no whole block, one, two
// and a tail) and N, over uniform words below 2^40 and words at 0 and
// 2^40−1.
func TestPutWords5MatchesLoop(t *testing.T) {
	rng := testutil.NewRand(t)
	lengths := []int{4096}
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, fill := range []string{"uniform", "edges"} {
			src := make([]uint64, n)
			for i := range src {
				src[i] = rng.Uint64() >> 24
				if fill == "edges" {
					src[i] = (1<<40 - 1) * uint64(i%3&1)
				}
			}
			got, want := make([]byte, 5*n), make([]byte, 5*n)
			putWords(got, src, 5)
			putWordsLoop(want, src, 5)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d %s words: the fast path wrote %x, the loop %x", n, fill, got, want)
			}
			back := make([]uint64, n)
			if getWords(back, got, 5); !slices.Equal(back, src) {
				t.Fatalf("%d %s words: read back %v, want %v", n, fill, back, src)
			}
		}
	}
}
