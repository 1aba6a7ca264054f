package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cham/internal/bfv"
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

func randomMatrix(rng *rand.Rand, m, n int, bound uint64) [][]uint64 {
	A := make([][]uint64, m)
	for i := range A {
		A[i] = make([]uint64, n)
		for j := range A[i] {
			A[i][j] = rng.Uint64() % bound
		}
	}
	return A
}

func randomVector(rng *rand.Rand, n int, bound uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % bound
	}
	return v
}

// TestMatVecSquare is the headline Alg. 1 correctness check at several
// matrix shapes, including non-power-of-two row counts (padding) and
// m < n, m > n regimes.
func TestMatVecShapes(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct{ m, n int }{
		{1, 1}, {1, 64}, {64, 64}, {5, 64}, {13, 7}, {64, 3}, {32, 64},
	}
	for _, s := range shapes {
		A := randomMatrix(rng, s.m, s.n, p.T.Q)
		v := randomVector(rng, s.n, p.T.Q)
		ctV := EncryptVector(p, rng, sk, v)
		res, err := ev.MatVec(A, ctV)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.m, s.n, err)
		}
		got := DecryptResult(p, res, sk)
		want := PlainMatVec(p, A, v)
		if len(got) != s.m {
			t.Fatalf("%dx%d: %d results", s.m, s.n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d: row %d = %d, want %d", s.m, s.n, i, got[i], want[i])
			}
		}
	}
}

// TestMatVecColumnTiling covers n > N: the vector spans several
// ciphertexts and rows aggregate across chunks (the paper's n >= m note).
func TestMatVecColumnTiling(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, _ := NewEvaluator(p, rng, sk, p.R.N)

	for _, cols := range []int{33, 64, 100} {
		A := randomMatrix(rng, 8, cols, p.T.Q)
		v := randomVector(rng, cols, p.T.Q)
		ctV := EncryptVector(p, rng, sk, v)
		if len(ctV) != (cols+p.R.N-1)/p.R.N {
			t.Fatalf("cols=%d: unexpected chunk count %d", cols, len(ctV))
		}
		res, err := ev.MatVec(A, ctV)
		if err != nil {
			t.Fatal(err)
		}
		got := DecryptResult(p, res, sk)
		want := PlainMatVec(p, A, v)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cols=%d row %d: %d want %d", cols, i, got[i], want[i])
			}
		}
	}
}

// TestMatVecRowTiling covers m > N: multiple packed output ciphertexts.
func TestMatVecRowTiling(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, _ := NewEvaluator(p, rng, sk, p.R.N)

	m := 40 // 2.5 tiles at N=16
	A := randomMatrix(rng, m, 16, p.T.Q)
	v := randomVector(rng, 16, p.T.Q)
	ctV := EncryptVector(p, rng, sk, v)
	res, err := ev.MatVec(A, ctV)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packed) != 3 {
		t.Fatalf("expected 3 tiles, got %d", len(res.Packed))
	}
	got := DecryptResult(p, res, sk)
	want := PlainMatVec(p, A, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d want %d", i, got[i], want[i])
		}
	}
}

// TestMatVecPublicKeyPath: the two-party flow where A encrypts with a
// public key.
func TestMatVecPublicKeyPath(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	pk := p.PublicKeyGen(rng, sk)
	ev, _ := NewEvaluator(p, rng, sk, p.R.N)

	A := randomMatrix(rng, 16, 32, p.T.Q)
	v := randomVector(rng, 32, p.T.Q)
	ctV := EncryptVectorPK(p, rng, pk, v)
	res, err := ev.MatVec(A, ctV)
	if err != nil {
		t.Fatal(err)
	}
	got := DecryptResult(p, res, sk)
	want := PlainMatVec(p, A, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d want %d", i, got[i], want[i])
		}
	}
}

// TestClientHalfConcurrentOneKey: several callers encrypting and
// decrypting under one SecretKey at once, each with its own generator, as
// a server's concurrent clients do. The key's Shoup table is shared and
// only read; run under -race this holds that, and every fresh ciphertext
// and every result must still decrypt right.
func TestClientHalfConcurrentOneKey(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds, cols = 4, 8, 100 // two column chunks
	A := randomMatrix(rng, 20, cols, p.T.Q)
	type job struct {
		v, want []uint64
		res     *Result
		rng     *rand.Rand
	}
	jobs := make([]job, callers)
	for g := range jobs {
		v := randomVector(rng, cols, p.T.Q)
		res, err := ev.MatVec(A, EncryptVector(p, rng, sk, v))
		if err != nil {
			t.Fatal(err)
		}
		jobs[g] = job{v: v, want: PlainMatVec(p, A, v), res: res, rng: rand.New(rand.NewSource(rng.Int63()))}
	}
	errs := make(chan string, callers)
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for c, ct := range EncryptVector(p, j.rng, sk, j.v) {
					want := p.EncodeVector(j.v[c*p.R.N : min((c+1)*p.R.N, cols)])
					if !slices.Equal(p.Decrypt(ct, sk).Coeffs, want.Coeffs) {
						errs <- fmt.Sprintf("round %d: chunk %d decrypts wrong", round, c)
						return
					}
				}
				if got := DecryptResult(p, j.res, sk); !slices.Equal(got, j.want) {
					errs <- fmt.Sprintf("round %d: result reads %v, want %v", round, got, j.want)
					return
				}
			}
		}(jobs[g])
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestMatVecValidation(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, _ := NewEvaluator(p, rng, sk, p.R.N)
	ctV := EncryptVector(p, rng, sk, make([]uint64, 16))

	if _, err := ev.MatVec(nil, ctV); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := ev.MatVec([][]uint64{{}}, ctV); err == nil {
		t.Error("zero-column matrix accepted")
	}
	ragged := [][]uint64{make([]uint64, 16), make([]uint64, 15)}
	if _, err := ev.MatVec(ragged, ctV); err == nil {
		t.Error("ragged matrix accepted")
	}
	wide := randomMatrix(rng, 2, 40, 7) // needs 3 chunks, ctV has 1
	if _, err := ev.MatVec(wide, ctV); err == nil {
		t.Error("chunk-count mismatch accepted")
	}
	if _, err := NewEvaluator(p, rng, sk, 0); err == nil {
		t.Error("maxRows=0 accepted")
	}
}

// TestMatVecKeyCoverage: an evaluator provisioned for few rows must refuse
// larger tiles rather than mis-pack.
func TestMatVecKeyCoverage(t *testing.T) {
	p := testParams(t, 16)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, 4)
	if err != nil {
		t.Fatal(err)
	}
	A := randomMatrix(rng, 8, 16, p.T.Q)
	ctV := EncryptVector(p, rng, sk, make([]uint64, 16))
	if _, err := ev.MatVec(A, ctV); err == nil {
		t.Error("tile larger than key coverage accepted")
	}
	// 4 rows works and zero-pads internally to a clean power of two.
	small := randomMatrix(rng, 3, 16, p.T.Q)
	v := randomVector(rng, 16, p.T.Q)
	ctV = EncryptVector(p, rng, sk, v)
	res, err := ev.MatVec(small, ctV)
	if err != nil {
		t.Fatal(err)
	}
	got := DecryptResult(p, res, sk)
	want := PlainMatVec(p, small, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d want %d", i, got[i], want[i])
		}
	}
}

// TestChamProductionDegree runs one HMVP at the real N=4096 parameters to
// make sure nothing depends on the reduced test degree.
func TestChamProductionDegree(t *testing.T) {
	if testing.Short() {
		t.Skip("production-degree HMVP is slow")
	}
	p := testParams(t, 4096)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	const m = 16 // keep runtime reasonable; padding exercises packing
	ev, err := NewEvaluator(p, rng, sk, m)
	if err != nil {
		t.Fatal(err)
	}
	A := randomMatrix(rng, m, 4096, p.T.Q)
	v := randomVector(rng, 4096, p.T.Q)
	ctV := EncryptVector(p, rng, sk, v)
	res, err := ev.MatVec(A, ctV)
	if err != nil {
		t.Fatal(err)
	}
	got := DecryptResult(p, res, sk)
	want := PlainMatVec(p, A, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d want %d", i, got[i], want[i])
		}
	}
}
