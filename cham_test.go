package cham_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cham"
)

func TestFacadeHMVP(t *testing.T) {
	params := cham.MustParams(64)
	rng := cham.NewRNG(1)
	sk := params.KeyGen(rng)

	ev, err := cham.NewEvaluator(params, rng, sk, 16)
	if err != nil {
		t.Fatal(err)
	}
	matrix := [][]uint64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	}
	vector := []uint64{10, 20, 30}
	res, err := ev.MatVec(matrix, cham.EncryptVector(params, rng, sk, vector))
	if err != nil {
		t.Fatal(err)
	}
	got := cham.DecryptResult(params, res, sk)
	want := cham.PlainMatVec(params, matrix, vector)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d want %d", i, got[i], want[i])
		}
	}
}

func TestFacadePublicKeyFlow(t *testing.T) {
	params := cham.MustParams(32)
	rng := cham.NewRNG(2)
	sk := params.KeyGen(rng)
	pk := params.PublicKeyGen(rng, sk)
	ev, _ := cham.NewEvaluator(params, rng, sk, 4)
	matrix := [][]uint64{{5, 6}, {7, 8}}
	res, err := ev.MatVec(matrix, cham.EncryptVectorPK(params, rng, pk, []uint64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	got := cham.DecryptResult(params, res, sk)
	if got[0] != 17 || got[1] != 23 {
		t.Fatalf("got %v", got)
	}
}

// TestSecureRNG: two secure generators yield different streams, and keys,
// ciphertexts and an HMVP drawn from one decrypt right.
func TestSecureRNG(t *testing.T) {
	g1, g2 := cham.NewSecureRNG(), cham.NewSecureRNG()
	same := true
	for i := 0; i < 4; i++ {
		same = same && g1.Uint64() == g2.Uint64()
	}
	if same {
		t.Fatal("two secure generators produced the same four words")
	}

	params := cham.MustParams(64)
	rng := cham.NewSecureRNG()
	sk := params.KeyGen(rng)
	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = rng.Uint64() % params.T.Q
	}
	for _, levels := range []int{params.NormalLevels, params.R.Levels()} {
		if got := params.Decrypt(params.Encrypt(rng, sk, pt, levels), sk); !slices.Equal(got.Coeffs, pt.Coeffs) {
			t.Fatalf("%d limbs: encrypt then decrypt does not round-trip", levels)
		}
	}
	ev, err := cham.NewEvaluator(params, rng, sk, 2)
	if err != nil {
		t.Fatal(err)
	}
	matrix := [][]uint64{{1, 1, 1}, {1, 2, 3}}
	res, err := ev.MatVec(matrix, cham.EncryptVector(params, rng, sk, []uint64{4, 5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if got := cham.DecryptResult(params, res, sk); !slices.Equal(got, []uint64{15, 32}) {
		t.Fatalf("HMVP under a secure generator reads %v, want [15 32]", got)
	}
}

func TestFacadeConv2D(t *testing.T) {
	params := cham.MustParams(64)
	rng := cham.NewRNG(3)
	sk := params.KeyGen(rng)
	shape := cham.Conv2DShape{H: 4, W: 4, KH: 2, KW: 2}
	img := [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}}
	ker := [][]uint64{{1, 0}, {0, 1}}
	ipt, err := cham.EncodeImage(params, shape, img)
	if err != nil {
		t.Fatal(err)
	}
	ct := params.Encrypt(rng, sk, ipt, params.R.Levels())
	out, err := cham.Conv2D(params, shape, ct, ker)
	if err != nil {
		t.Fatal(err)
	}
	dec := cham.DecodeConvOutput(params, shape, params.Decrypt(out, sk))
	if dec[0][0] != 1+6 || dec[2][2] != 11+16 {
		t.Fatalf("conv output wrong: %v", dec)
	}
}

func TestFacadeBatchEvaluator(t *testing.T) {
	params := cham.MustParams(32)
	rng := cham.NewRNG(4)
	sk := params.KeyGen(rng)
	be, err := cham.NewBatchEvaluator(params, rng, sk)
	if err != nil {
		t.Fatal(err)
	}
	if be.TraceSteps() != 5 {
		t.Fatalf("TraceSteps = %d", be.TraceSteps())
	}
}

func TestFacadeAcceleratorAndDSE(t *testing.T) {
	acc := cham.DefaultAccelerator()
	if acc.NumEngines != 2 || acc.N != 4096 {
		t.Fatalf("unexpected default accelerator %+v", acc)
	}
	if ks := acc.KeySwitchOpsPerSec(); ks < 60e3 || ks > 70e3 {
		t.Fatalf("key-switch throughput %.0f", ks)
	}
	pts := cham.ExploreDesignSpace()
	if len(pts) < 90 {
		t.Fatalf("only %d design points", len(pts))
	}
}

func TestExperimentsRegistry(t *testing.T) {
	ids := cham.Experiments()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments", len(ids))
	}
	out, err := cham.RunExperiment("headline")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1800x") {
		t.Error("headline output missing paper claim")
	}
	if _, err := cham.RunExperiment("bogus"); err == nil {
		t.Error("bogus experiment id accepted")
	}
}

// ExampleRunExperiment regenerates a paper artifact programmatically.
func ExampleRunExperiment() {
	out, _ := cham.RunExperiment("table2")
	fmt.Println(strings.Contains(out, "Compute Engine 0"))
	// Output: true
}

// Example demonstrates the core homomorphic matrix-vector product flow.
func Example() {
	params := cham.MustParams(64) // use 4096 for the production parameters
	rng := cham.NewRNG(7)
	sk := params.KeyGen(rng)

	ev, _ := cham.NewEvaluator(params, rng, sk, 2)
	matrix := [][]uint64{{1, 1, 1}, {1, 2, 3}}
	vector := []uint64{4, 5, 6}

	ctV := cham.EncryptVector(params, rng, sk, vector)
	res, _ := ev.MatVec(matrix, ctV)
	fmt.Println(cham.DecryptResult(params, res, sk))
	// Output: [15 32]
}

func TestFacadeNoiseAndSecurity(t *testing.T) {
	params := cham.MustParams(4096)
	if err := cham.CheckSecurity(params); err != nil {
		t.Errorf("production parameters fail the standard: %v", err)
	}
	est := cham.NoiseEstimator(params)
	if est.MaxPackRows() != 4096 {
		t.Errorf("MaxPackRows = %d, want 4096", est.MaxPackRows())
	}
	small := cham.MustParams(1024) // test-size ring: modulus too big for N
	if err := cham.CheckSecurity(small); err == nil {
		t.Error("test-size ring should fail the standard (documented caveat)")
	}
}
