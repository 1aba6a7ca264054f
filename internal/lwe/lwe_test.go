package lwe

import (
	"testing"

	"cham/internal/bfv"
	"cham/internal/rlwe"
	"cham/internal/testutil"
)

func testParams(tb testing.TB, n int) bfv.Params {
	tb.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestExtractDecrypt: extracting coefficient idx of an RLWE ciphertext must
// yield an LWE ciphertext of exactly that plaintext coefficient.
func TestExtractDecrypt(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	vals := make([]uint64, p.R.N)
	for i := range vals {
		vals[i] = rng.Uint64() % p.T.Q
	}
	ct := p.Encrypt(rng, sk, p.EncodeVector(vals), 2)

	for _, idx := range []int{0, 1, 7, p.R.N / 2, p.R.N - 1} {
		l := Extract(p, ct, idx)
		if l.Levels() != 2 {
			t.Fatal("levels wrong")
		}
		// μ = ⌊t·(β + <α,s>)/Q⌉ mod t is the constant term of the embedding.
		if got := p.Decrypt(l.AsRLWE(p), sk).Coeffs[0]; got != vals[idx] {
			t.Fatalf("idx=%d: extracted %d, want %d", idx, got, vals[idx])
		}
	}
}

func TestExtractGuards(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ct := p.Encrypt(rng, sk, p.NewPlaintext(), 2)
	for _, idx := range []int{-1, p.R.N} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("idx=%d accepted", idx)
				}
			}()
			Extract(p, ct, idx)
		}()
	}
	p.R.NTT(ct.B)
	p.R.NTT(ct.A)
	defer func() {
		if recover() == nil {
			t.Error("NTT-domain input accepted")
		}
	}()
	Extract(p, ct, 0)
}

// TestAsRLWERoundTrip: Extract and AsRLWE must be inverse transforms on the
// raw mask data.
func TestAsRLWERoundTrip(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ct := p.Encrypt(rng, sk, p.NewPlaintext(), 2)
	l := Extract(p, ct, 0)
	rl := l.AsRLWE(p)
	l2 := Extract(p, rl, 0)
	for lv := 0; lv < 2; lv++ {
		if l.Beta[lv] != l2.Beta[lv] {
			t.Fatal("beta changed")
		}
		for j := range l.Alpha[lv] {
			if l.Alpha[lv][j] != l2.Alpha[lv][j] {
				t.Fatal("alpha changed")
			}
		}
	}
}

func TestGenPackingKeysValidation(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	for _, m := range []int{0, 3, 12, 32} {
		if _, err := GenPackingKeys(p, rng, sk, m); err == nil {
			t.Errorf("m=%d accepted", m)
		}
	}
	pk, err := GenPackingKeys(p, rng, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 5, 9} {
		if pk.Keys[k] == nil {
			t.Errorf("missing key for automorphism %d", k)
		}
	}
	if len(pk.Keys) != 3 {
		t.Errorf("expected 3 keys, got %d", len(pk.Keys))
	}
}

// TestPackLWEs is the end-to-end Alg. 1 lines 3-5 check: extract m
// coefficients from independent ciphertexts, pack them, decrypt, and find
// m·μ_i at stride-N/m slots.
func TestPackLWEs(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)

	for _, m := range []int{1, 2, 4, 16, 64} {
		keys, err := GenPackingKeys(p, rng, sk, m)
		if err != nil {
			t.Fatal(err)
		}
		mus := make([]uint64, m)
		cts := make([]*Ciphertext, m)
		for i := range cts {
			mus[i] = rng.Uint64() % p.T.Q
			vals := make([]uint64, p.R.N)
			for j := range vals { // garbage everywhere, value at slot 0
				vals[j] = rng.Uint64() % p.T.Q
			}
			vals[0] = mus[i]
			ct := p.Encrypt(rng, sk, p.EncodeVector(vals), 2)
			cts[i] = Extract(p, ct, 0)
		}
		packed, err := PackLWEs(p, cts, keys)
		if err != nil {
			t.Fatal(err)
		}
		dec := p.Decrypt(packed, sk)
		stride := SlotStride(p.R.N, m)
		scale := uint64(m) % p.T.Q
		for i := 0; i < m; i++ {
			want := p.T.Mul(scale, mus[i])
			if got := dec.Coeffs[i*stride]; got != want {
				t.Fatalf("m=%d slot %d: got %d want %d (=%d·μ)", m, i, got, want, m)
			}
		}
	}
}

// TestPackLWEsWithInvPow2: pre-scaling the values by 2^-ℓ mod t cancels the
// packing factor, which is how HMVP uses the pipeline.
func TestPackLWEsWithInvPow2(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	const m = 8
	keys, _ := GenPackingKeys(p, rng, sk, m)
	inv := p.InvPow2(3)

	mus := make([]uint64, m)
	cts := make([]*Ciphertext, m)
	for i := range cts {
		mus[i] = rng.Uint64() % p.T.Q
		vals := make([]uint64, 1)
		vals[0] = p.T.Mul(mus[i], inv) // pre-compensated
		ct := p.Encrypt(rng, sk, p.EncodeVector(vals), 2)
		cts[i] = Extract(p, ct, 0)
	}
	packed, err := PackLWEs(p, cts, keys)
	if err != nil {
		t.Fatal(err)
	}
	dec := p.Decrypt(packed, sk)
	stride := SlotStride(p.R.N, m)
	for i := 0; i < m; i++ {
		if got := dec.Coeffs[i*stride]; got != mus[i] {
			t.Fatalf("slot %d: got %d want %d", i, got, mus[i])
		}
	}
}

func TestPackLWEsValidation(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, _ := GenPackingKeys(p, rng, sk, 4)

	ct := p.Encrypt(rng, sk, p.NewPlaintext(), 2)
	l := Extract(p, ct, 0)
	if _, err := PackLWEs(p, []*Ciphertext{l, l, l}, keys); err == nil {
		t.Error("non-power-of-two count accepted")
	}
	if _, err := PackLWEs(p, nil, keys); err == nil {
		t.Error("empty input accepted")
	}
	eight := make([]*Ciphertext, 8)
	for i := range eight {
		eight[i] = l
	}
	if _, err := PackLWEs(p, eight, keys); err == nil {
		t.Error("packing beyond key coverage accepted")
	}
	if _, err := PackLWEs(p, []*Ciphertext{l, l}, nil); err == nil {
		t.Error("nil packing keys accepted")
	}
}

// countingLeaves is a fold leaf source that records how often it is asked.
type countingLeaves struct{ calls int }

func (c *countingLeaves) Leaf(int, *PackNode, int) { c.calls++ }

// TestPackMissingTopKey: a key set that lacks only the top level's key
// fails before the fold takes its first leaf — PackResident leaves the
// caller's nodes untouched (the level-order walk used to consume the lower
// levels first) and a Fold never asks its source for a leaf.
func TestPackMissingTopKey(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	const m = 8
	keys, err := GenPackingKeys(p, rng, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	partial := &PackingKeys{M: m, Keys: map[int]*rlwe.SwitchingKey{}}
	for k, swk := range keys.Keys {
		if k != m+1 { // the top merge's automorphism 2·(m/2)+1
			partial.Keys[k] = swk
		}
	}
	nodes := make([]*PackNode, m)
	want := make([]*PackNode, m)
	for i := range nodes {
		ct := p.Encrypt(rng, sk, p.EncodeVector(testutil.Vector(rng, p.R.N, p.T.Q)), p.NormalLevels)
		nodes[i], want[i] = NewPackNode(p), NewPackNode(p)
		ResidentFromRLWE(p, nodes[i], ct)
		ResidentFromRLWE(p, want[i], ct)
	}
	for _, workers := range []int{1, 2, 4} {
		if _, err := PackResident(p, nodes, partial, workers); err == nil {
			t.Fatalf("workers=%d: key set without k=%d accepted", workers, m+1)
		}
		for i := range nodes {
			if !nodes[i].BT.Equal(want[i].BT) || !nodes[i].A.Equal(want[i].A) {
				t.Fatalf("workers=%d: failed PackResident modified node %d", workers, i)
			}
		}
		var f Fold
		src := &countingLeaves{}
		if _, err := f.Run(p, m, src, partial, workers, nil); err == nil {
			t.Fatalf("workers=%d: Fold.Run without k=%d accepted", workers, m+1)
		}
		if src.calls != 0 {
			t.Errorf("workers=%d: Fold.Run asked for %d leaves before failing", workers, src.calls)
		}
	}
}
