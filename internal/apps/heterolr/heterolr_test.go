package heterolr

import (
	"math"
	"math/big"

	"cham/internal/core"
	"math/rand"
	"testing"
	"testing/quick"
)

func testCodec(tb testing.TB, n int) *Codec {
	tb.Helper()
	c, err := NewCodec(n, 6)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestCodecRoundTrip(t *testing.T) {
	c := testCodec(t, 64)
	f := func(v int32) bool {
		r0, r1 := c.EncodeInt(int64(v))
		return c.DecodeInt(r0, r1) == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Float round trip at depth 1 is exact to quantization.
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 3.140625} {
		r0, r1 := c.Encode(x)
		got := c.Decode(r0, r1, 1)
		if math.Abs(got-x) > 1.0/64 {
			t.Errorf("%f -> %f", x, got)
		}
	}
	// Near the space boundary.
	half := new(big.Int).Rsh(c.space, 2).Int64()
	r0, r1 := c.EncodeInt(half)
	if c.DecodeInt(r0, r1) != half {
		t.Error("boundary value lost")
	}
}

func TestCheckHeadroom(t *testing.T) {
	c := testCodec(t, 16)
	if err := c.CheckHeadroom(8192, 4); err != nil {
		t.Errorf("8192 samples should fit at F=6: %v", err)
	}
	if err := c.CheckHeadroom(1<<40, 4); err == nil {
		t.Error("absurd accumulation accepted")
	}
}

func TestSyntheticDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := Synthetic(rng, 200, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Samples() != 200 || d.FeaturesA() != 5 || d.FeaturesB() != 7 {
		t.Fatal("dimensions wrong")
	}
	ones := 0
	for _, y := range d.Y {
		if y != 0 && y != 1 {
			t.Fatal("label not binary")
		}
		if y == 1 {
			ones++
		}
	}
	if ones < 20 || ones > 180 {
		t.Errorf("degenerate class balance: %d/200", ones)
	}
	if _, err := Synthetic(rng, 0, 1, 1); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestTrainMatchesQuantizedReference: the homomorphic protocol must
// produce bit-identical weight trajectories to the clear integer
// reference — HE adds no arithmetic error at these parameters.
func TestTrainMatchesQuantizedReference(t *testing.T) {
	codec := testCodec(t, 256)
	rng := rand.New(rand.NewSource(2))
	d, err := Synthetic(rng, 200, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const epochs, lr = 3, 0.8
	tr, err := NewTrainer(codec, rng, epochs, lr, d.FeaturesA()+d.FeaturesB())
	if err != nil {
		t.Fatal(err)
	}
	he, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	ref := trainPlaintextQuantized(codec, d, epochs, lr, 0)
	for i := range he.WA {
		if math.Abs(he.WA[i]-ref.WA[i]) > 1e-12 {
			t.Fatalf("WA[%d]: HE %.15f vs ref %.15f", i, he.WA[i], ref.WA[i])
		}
	}
	for i := range he.WB {
		if math.Abs(he.WB[i]-ref.WB[i]) > 1e-12 {
			t.Fatalf("WB[%d]: HE %.15f vs ref %.15f", i, he.WB[i], ref.WB[i])
		}
	}
}

// TestTrainingConverges: accuracy well above chance and decreasing loss
// on a separable synthetic problem.
func TestTrainingConverges(t *testing.T) {
	codec := testCodec(t, 256)
	rng := rand.New(rand.NewSource(3))
	d, err := Synthetic(rng, 256, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(codec, rng, 8, 1.2, 12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(d); acc < 0.8 {
		t.Errorf("training accuracy %.3f < 0.8", acc)
	}
	first := m.LossHistory[0]
	last := m.LossHistory[len(m.LossHistory)-1]
	if last >= first {
		t.Errorf("loss did not decrease: %.4f -> %.4f", first, last)
	}
}

// TestTrainerValidation: hyperparameter and headroom guards.
func TestTrainerValidation(t *testing.T) {
	codec := testCodec(t, 16)
	rng := rand.New(rand.NewSource(4))
	if _, err := NewTrainer(codec, rng, 0, 0.1, 4); err == nil {
		t.Error("0 epochs accepted")
	}
	if _, err := NewTrainer(codec, rng, 1, -1, 4); err == nil {
		t.Error("negative lr accepted")
	}
	// Headroom failure: tiny modulus space vs huge dataset is simulated by
	// a codec with excessive fraction bits.
	big, err := NewCodec(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(big, rng, 1, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Synthetic(rng, 16, 2, 2)
	if _, err := tr.Train(d); err == nil {
		t.Error("overflow-prone training accepted")
	}
}

// TestChunkedSamples: more samples than the ring degree exercises the
// chunked residual assembly and column-tiled HMVP.
func TestChunkedSamples(t *testing.T) {
	codec := testCodec(t, 64)
	rng := rand.New(rand.NewSource(5))
	d, err := Synthetic(rng, 150, 3, 3) // 150 > N=64: 3 chunks
	if err != nil {
		t.Fatal(err)
	}
	const epochs, lr = 2, 0.5
	tr, err := NewTrainer(codec, rng, epochs, lr, 6)
	if err != nil {
		t.Fatal(err)
	}
	he, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	ref := trainPlaintextQuantized(codec, d, epochs, lr, 0)
	for i := range he.WA {
		if math.Abs(he.WA[i]-ref.WA[i]) > 1e-12 {
			t.Fatalf("chunked WA[%d] differs", i)
		}
	}
}

// TestMiniBatchMatchesReference: mini-batch training through the HE
// protocol must match the integer reference exactly, batch by batch.
func TestMiniBatchMatchesReference(t *testing.T) {
	codec := testCodec(t, 128)
	rng := rand.New(rand.NewSource(6))
	d, err := Synthetic(rng, 100, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	const epochs, lr, batch = 2, 0.6, 32
	tr, err := NewTrainer(codec, rng, epochs, lr, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr.BatchSize = batch
	he, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	ref := trainPlaintextQuantized(codec, d, epochs, lr, batch)
	for i := range he.WA {
		if math.Abs(he.WA[i]-ref.WA[i]) > 1e-12 {
			t.Fatalf("mini-batch WA[%d]: %v vs %v", i, he.WA[i], ref.WA[i])
		}
	}
	for i := range he.WB {
		if math.Abs(he.WB[i]-ref.WB[i]) > 1e-12 {
			t.Fatalf("mini-batch WB[%d]: %v vs %v", i, he.WB[i], ref.WB[i])
		}
	}
	// Mini-batch must differ from full-batch (it is a different algorithm).
	full := trainPlaintextQuantized(codec, d, epochs, lr, 0)
	same := true
	for i := range full.WA {
		if math.Abs(full.WA[i]-he.WA[i]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Error("mini-batch training trajectory identical to full batch")
	}
}

// TestMiniBatchRelaxesHeadroom: a batch size small enough to fit the CRT
// space lets training proceed where full batch would overflow.
func TestMiniBatchRelaxesHeadroom(t *testing.T) {
	big, err := NewCodec(64, 12) // 12 fraction bits: tight headroom
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	d, _ := Synthetic(rng, 600, 2, 2)
	tr, err := NewTrainer(big, rng, 1, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(d); err == nil {
		t.Fatal("full batch at 600 samples should overflow F=12 headroom")
	}
	tr.BatchSize = 16
	if _, err := tr.Train(d); err != nil {
		t.Fatalf("mini-batch should fit: %v", err)
	}
}

// TestGradientMasking: the arbiter-visible plaintexts must be blinded —
// decrypting the packed gradients without unmasking yields values far
// from the true gradients — while the unmasked training trajectory stays
// bit-exact (covered by TestTrainMatchesQuantizedReference, which runs
// the masked protocol).
func TestGradientMasking(t *testing.T) {
	codec := testCodec(t, 128)
	rng := rand.New(rand.NewSource(9))
	d, _ := Synthetic(rng, 64, 3, 3)
	tr, err := NewTrainer(codec, rng, 1, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Reach into one step manually: run the HMVP twice, once with and
	// once without masking, and compare the arbiter's view.
	m := &Model{WA: make([]float64, 3), WB: make([]float64, 3)}
	xaT := quantizeTranspose(tr.Codec, d.XA)
	xbT := quantizeTranspose(tr.Codec, d.XB)
	ch := tr.channels()[0]
	uA := matVecFloat(d.XA, m.WA)
	uaq := make([]uint64, len(uA))
	for s, u := range uA {
		uaq[s] = ch.p.T.FromCentered(tr.Codec.Quantize(u))
	}
	quarter := uint64(1) << (tr.Codec.F - 2)
	stacked := append(append([][]uint64{}, xaT[0]...), xbT[0]...)

	run := func(masks []int64) []uint64 {
		ctU := core.EncryptVector(ch.p, rng, tr.sk, uaq)
		ctD := tr.assembleResidual(ch, ctU, matVecFloat(d.XB, m.WB), d.Y, quarter)
		res, err := ch.ev.MatVec(stacked, ctD)
		if err != nil {
			t.Fatal(err)
		}
		if masks != nil {
			maskPackedResult(ch.p, res, masks)
		}
		return core.DecryptResult(ch.p, res, tr.sk)
	}
	truth := run(nil)
	masks := make([]int64, 6)
	for i := range masks {
		masks[i] = int64(1000 + i*77777)
	}
	blinded := run(masks)
	for i := range truth {
		want := ch.p.T.Add(truth[i], ch.p.T.FromCentered(masks[i]))
		if blinded[i] != want {
			t.Fatalf("row %d: masked value %d, want %d", i, blinded[i], want)
		}
		if blinded[i] == truth[i] && masks[i]%int64(ch.p.T.Q) != 0 {
			t.Fatalf("row %d: arbiter sees the raw gradient", i)
		}
	}
}

// trainPlaintextQuantized runs the identical protocol arithmetic on clear
// integers (same quantization, same Taylor approximation) — the exactness
// reference for the HE path, over mini-batches of batch samples (batch <= 0
// means full batch).
func trainPlaintextQuantized(codec *Codec, d *Dataset, epochs int, lr float64, batch int) *Model {
	m := &Model{
		WA: make([]float64, d.FeaturesA()),
		WB: make([]float64, d.FeaturesB()),
	}
	if batch <= 0 || batch > d.Samples() {
		batch = d.Samples()
	}
	const l2 = 1e-4
	f := codec.F
	for epoch := 0; epoch < epochs; epoch++ {
		for base := 0; base < d.Samples(); base += batch {
			end := base + batch
			if end > d.Samples() {
				end = d.Samples()
			}
			xa, xb, y := d.XA[base:end], d.XB[base:end], d.Y[base:end]
			uA := matVecFloat(xa, m.WA)
			uB := matVecFloat(xb, m.WB)
			n := end - base
			dInt := make([]int64, n)
			for s := 0; s < n; s++ {
				uq := codec.Quantize(uA[s]) + codec.Quantize(uB[s])
				dInt[s] = (int64(1)<<(f-2))*uq +
					int64(math.Round((0.5-y[s])*math.Pow(2, float64(2*f))))
			}
			grad := func(x [][]float64, w []float64) {
				for i := range w {
					var acc int64
					for s := 0; s < n; s++ {
						acc += codec.Quantize(x[s][i]) * dInt[s]
					}
					g := float64(acc) / math.Pow(2, float64(3*f)) / float64(n)
					w[i] -= lr * (g + l2*w[i])
				}
			}
			grad(xa, m.WA)
			grad(xb, m.WB)
		}
		m.LossHistory = append(m.LossHistory, logisticLoss(d, m))
	}
	return m
}
