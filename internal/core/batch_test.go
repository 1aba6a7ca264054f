package core

import (
	"math/rand"
	"testing"

	"cham/internal/rlwe"
)

func TestBatchMatVecMatchesPlain(t *testing.T) {
	p := testParams(t, 64)
	rng := rand.New(rand.NewSource(10))
	sk := p.KeyGen(rng)
	be, err := NewBatchEvaluator(p, rng, sk)
	if err != nil {
		t.Fatal(err)
	}
	if be.TraceSteps() != 6 { // log2(64)
		t.Fatalf("TraceSteps = %d, want 6", be.TraceSteps())
	}

	// Keep magnitudes modest: batch noise grows with t·√N·e plus N-fold
	// trace accumulation.
	A := randomMatrix(rng, 5, 64, 256)
	v := randomVector(rng, 64, 256)
	ctV, err := be.EncryptSlots(rng, sk, v)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := be.MatVec(A, ctV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := be.DecryptBatchResult(rows, sk)
	if err != nil {
		t.Fatal(err)
	}
	want := PlainMatVec(p, A, v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d want %d", i, got[i], want[i])
		}
	}
}

// TestBatchAndCoefficientAgree: both HMVP methods must compute the same
// product.
func TestBatchAndCoefficientAgree(t *testing.T) {
	p := testParams(t, 32)
	rng := rand.New(rand.NewSource(11))
	sk := p.KeyGen(rng)

	A := randomMatrix(rng, 4, 32, 128)
	v := randomVector(rng, 32, 128)

	ev, _ := NewEvaluator(p, rng, sk, 4)
	res, err := ev.MatVec(A, EncryptVector(p, rng, sk, v))
	if err != nil {
		t.Fatal(err)
	}
	coeffOut := DecryptResult(p, res, sk)

	be, _ := NewBatchEvaluator(p, rng, sk)
	ctV, _ := be.EncryptSlots(rng, sk, v)
	rows, err := be.MatVec(A, ctV)
	if err != nil {
		t.Fatal(err)
	}
	batchOut, _ := be.DecryptBatchResult(rows, sk)
	for i := range coeffOut {
		if coeffOut[i] != batchOut[i] {
			t.Fatalf("row %d: coefficient %d vs batch %d", i, coeffOut[i], batchOut[i])
		}
	}
}

func TestBatchValidation(t *testing.T) {
	p := testParams(t, 16)
	rng := rand.New(rand.NewSource(12))
	sk := p.KeyGen(rng)
	be, _ := NewBatchEvaluator(p, rng, sk)
	ctV, _ := be.EncryptSlots(rng, sk, make([]uint64, 16))
	if _, err := be.MatVec(nil, ctV); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := be.MatVec(randomMatrix(rng, 2, 17, 3), ctV); err == nil {
		t.Error("n > N accepted")
	}
}

// TestSlotSum: the trace must place the sum of all slots in every slot.
func TestSlotSum(t *testing.T) {
	p := testParams(t, 32)
	rng := rand.New(rand.NewSource(13))
	sk := p.KeyGen(rng)
	be, _ := NewBatchEvaluator(p, rng, sk)

	v := randomVector(rng, 32, 64)
	var want uint64
	for _, x := range v {
		want = p.T.Add(want, x)
	}
	ctV, _ := be.EncryptSlots(rng, sk, v)
	// SlotSum operates on normal-basis ciphertexts: RESCALE both parts.
	norm := &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	p.R.NTT(ctV.B)
	p.R.NTT(ctV.A)
	p.R.INTTModDownTo(norm.B, ctV.B)
	p.R.INTTModDownTo(norm.A, ctV.A)
	summed := be.SlotSum(norm)
	slots, err := p.DecodeSlots(p.Decrypt(summed, sk))
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range slots {
		if s != want {
			t.Fatalf("slot %d = %d, want %d", j, s, want)
		}
	}
}
