package heterolr

import (
	"fmt"
	"math"
	"math/rand"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/rlwe"
)

// The protocol, following FATE's HeteroLR (Hardy et al.):
//
//  1. Both parties compute their local logit shares u = X·w in the clear.
//  2. Party A encrypts its share under the arbiter's key and sends it to
//     party B.
//  3. Party B homomorphically assembles the Taylor-approximated residual
//     [d] = 1/4·([u_A] + u_B) + (1/2 - y)   (σ(u) ≈ 1/2 + u/4).
//  4. Each party derives its gradient block as the HMVP X^T·[d] — the
//     step CHAM accelerates.
//  5. The arbiter decrypts the masked gradients and returns the updates.
//
// Fixed-point scales: logits at F bits, residuals at 2F after the 1/4
// multiply, gradients at 3F after the HMVP. All values ride the CRT
// plaintext pair, so the arithmetic is exact end to end (verified against
// an integer reference in tests).

// Trainer holds the cryptographic material and hyperparameters.
type Trainer struct {
	Codec  *Codec
	Epochs int
	LR     float64
	L2     float64
	// BatchSize enables mini-batch gradient descent (the paper's "if
	// combined with the techniques of mini-batch and matrix tiling, our
	// algorithm is able to support data of any scale"). 0 = full batch.
	BatchSize int

	rng *rand.Rand
	sk  *rlwe.SecretKey // the arbiter's key
	ev0 *core.Evaluator
	ev1 *core.Evaluator
}

// NewTrainer generates the arbiter key and the HMVP evaluators. The
// packing keys cover up to maxFeatures gradient rows.
func NewTrainer(codec *Codec, rng *rand.Rand, epochs int, lr float64, maxFeatures int) (*Trainer, error) {
	if epochs < 1 || lr <= 0 {
		return nil, fmt.Errorf("heterolr: bad hyperparameters")
	}
	sk := codec.P0.KeyGen(rng)
	ev0, err := core.NewEvaluator(codec.P0, rng, sk, maxFeatures)
	if err != nil {
		return nil, err
	}
	ev1, err := core.NewEvaluator(codec.P1, rng, sk, maxFeatures)
	if err != nil {
		return nil, err
	}
	return &Trainer{
		Codec: codec, Epochs: epochs, LR: lr, L2: 1e-4,
		rng: rng, sk: sk, ev0: ev0, ev1: ev1,
	}, nil
}

// Model is the trained split weight vector.
type Model struct {
	WA, WB      []float64
	LossHistory []float64
}

// PredictProb evaluates the logistic model on one sample.
func (m *Model) PredictProb(xa, xb []float64) float64 {
	u := 0.0
	for i, x := range xa {
		u += x * m.WA[i]
	}
	for i, x := range xb {
		u += x * m.WB[i]
	}
	return 1 / (1 + math.Exp(-u))
}

// Accuracy is the 0/1 accuracy over the dataset.
func (m *Model) Accuracy(d *Dataset) float64 {
	correct := 0
	for s := 0; s < d.Samples(); s++ {
		p := m.PredictProb(d.XA[s], d.XB[s])
		if (p > 0.5) == (d.Y[s] > 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(d.Samples())
}

// channel bundles the per-plaintext-modulus machinery.
type channel struct {
	p  bfv.Params
	ev *core.Evaluator
}

func (tr *Trainer) channels() [2]channel {
	return [2]channel{{tr.Codec.P0, tr.ev0}, {tr.Codec.P1, tr.ev1}}
}

// Train runs the protocol and returns the model.
func (tr *Trainer) Train(d *Dataset) (*Model, error) {
	batch := tr.BatchSize
	if batch <= 0 || batch > d.Samples() {
		batch = d.Samples()
	}
	if err := tr.Codec.CheckHeadroom(batch, 4); err != nil {
		return nil, err
	}
	m := &Model{
		WA: make([]float64, d.FeaturesA()),
		WB: make([]float64, d.FeaturesB()),
	}
	// The stacked feature matrix of each mini-batch is epoch-invariant, so
	// its evaluation-ready form (encode + lift + NTT of every gradient row)
	// is prepared once on first use and reused by every later epoch.
	cache := &prepCache{}
	cache.prep[0] = map[int]*core.PreparedMatrix{}
	cache.prep[1] = map[int]*core.PreparedMatrix{}
	for epoch := 0; epoch < tr.Epochs; epoch++ {
		for base := 0; base < d.Samples(); base += batch {
			end := base + batch
			if end > d.Samples() {
				end = d.Samples()
			}
			if err := tr.step(d, m, base, end, cache); err != nil {
				return nil, err
			}
		}
		m.LossHistory = append(m.LossHistory, logisticLoss(d, m))
	}
	return m, nil
}

// prepCache holds the prepared per-batch feature matrices, keyed by batch
// base sample, one map per residue channel. Scoped to a single Train call
// (the dataset and batch boundaries must not change under it).
type prepCache struct {
	prep [2]map[int]*core.PreparedMatrix
}

// step runs one gradient update over samples [base, end).
func (tr *Trainer) step(d *Dataset, m *Model, base, end int, cache *prepCache) error {
	quarter := uint64(1) << (tr.Codec.F - 2) // 1/4 at scale F
	xa := d.XA[base:end]
	xb := d.XB[base:end]
	y := d.Y[base:end]

	// Step 1: local logit shares (clear), quantized at scale F.
	uA := matVecFloat(xa, m.WA)
	uB := matVecFloat(xb, m.WB)

	// Random masks: the parties blind the packed gradients before the
	// arbiter decrypts, so the arbiter only ever sees g + mask mod t
	// (FATE's secure-aggregation discipline).
	features := d.FeaturesA() + d.FeaturesB()
	masks := make([]int64, features)
	for i := range masks {
		masks[i] = int64(tr.rng.Uint64() % (1 << 40))
	}

	// Quantized feature matrices for this batch, transposed (gradient rows
	// = features, the matrix-tiling boundary) — only materialized when the
	// batch is not yet in the prepared cache.
	var xaT, xbT [2][][]uint64

	var gInt [2][]uint64 // per channel, packed gradient residues
	for ci, ch := range tr.channels() {
		// Step 2: A encrypts its quantized logits.
		uaq := make([]uint64, len(uA))
		for s, u := range uA {
			uaq[s] = ch.p.T.FromCentered(tr.Codec.Quantize(u))
		}
		ctU := core.EncryptVector(ch.p, tr.rng, tr.sk, uaq)

		// Step 3: B assembles the residual homomorphically.
		ctD := tr.assembleResidual(ch, ctU, uB, y, quarter)

		// Step 4: gradient blocks for both parties, one packed HMVP over
		// the stacked feature rows, prepared once per batch and reused
		// across epochs.
		pm := cache.prep[ci][base]
		if pm == nil {
			if xaT[ci] == nil {
				xaT = quantizeTranspose(tr.Codec, xa)
				xbT = quantizeTranspose(tr.Codec, xb)
			}
			stacked := append(append([][]uint64{}, xaT[ci]...), xbT[ci]...)
			var err error
			pm, err = ch.ev.Prepare(stacked)
			if err != nil {
				return err
			}
			cache.prep[ci][base] = pm
		}
		res, err := pm.Apply(ctD)
		if err != nil {
			return err
		}
		// Step 4b: blind the packed gradients.
		maskPackedResult(ch.p, res, masks)
		// Step 5: the arbiter decrypts the MASKED gradients; the parties
		// remove their masks locally.
		masked := core.DecryptResult(ch.p, res, tr.sk)
		gInt[ci] = make([]uint64, len(masked))
		for i := range masked {
			gInt[ci][i] = ch.p.T.Sub(masked[i], ch.p.T.FromCentered(masks[i]))
		}
	}

	// Decode gradients at depth 3 (x·(quarter·u)) and update.
	n := float64(end - base)
	for i := 0; i < d.FeaturesA(); i++ {
		g := tr.Codec.Decode(gInt[0][i], gInt[1][i], 3) / n
		m.WA[i] -= tr.LR * (g + tr.L2*m.WA[i])
	}
	for i := 0; i < d.FeaturesB(); i++ {
		j := d.FeaturesA() + i
		g := tr.Codec.Decode(gInt[0][j], gInt[1][j], 3) / n
		m.WB[i] -= tr.LR * (g + tr.L2*m.WB[i])
	}
	return nil
}

// assembleResidual computes [d] = quarter·([uA] + uB) + (1/2-y)·2^(2F)
// on party B, keeping the augmented basis for the HMVP.
func (tr *Trainer) assembleResidual(ch channel, ctU []*rlwe.Ciphertext, uB, y []float64, quarter uint64) []*rlwe.Ciphertext {
	ubq := make([]uint64, len(uB)) // uB at scale F
	bias := make([]uint64, len(y)) // (1/2 - y) at scale 2F
	for s := range uB {
		ubq[s] = ch.p.T.FromCentered(tr.Codec.Quantize(uB[s]))
		bias[s] = ch.p.T.FromCentered(int64(math.Round((0.5 - y[s]) * math.Pow(2, float64(2*tr.Codec.F)))))
	}
	out := make([]*rlwe.Ciphertext, len(ctU))
	for c := range ctU {
		out[c] = ctU[c].Copy()
	}
	core.AddVector(ch.p, out, ubq)
	for _, ct := range out {
		ch.p.MulScalar(ct, ct, quarter) // 1/4 at scale F: values move to scale 2F
	}
	core.AddVector(ch.p, out, bias)
	return out
}

// maskPackedResult adds the per-row masks into the packed gradient
// ciphertexts, before they reach the arbiter.
func maskPackedResult(p bfv.Params, res *core.Result, masks []int64) {
	maskq := make([]uint64, len(masks))
	for i, mk := range masks {
		maskq[i] = p.T.FromCentered(mk)
	}
	core.AddResult(p, res, maskq)
}

// quantizeTranspose returns X^T quantized into both residue channels.
func quantizeTranspose(c *Codec, x [][]float64) [2][][]uint64 {
	samples := len(x)
	features := len(x[0])
	var out [2][][]uint64
	for ch := 0; ch < 2; ch++ {
		out[ch] = make([][]uint64, features)
		for f := 0; f < features; f++ {
			out[ch][f] = make([]uint64, samples)
		}
	}
	for s := 0; s < samples; s++ {
		for f := 0; f < features; f++ {
			r0, r1 := c.Encode(x[s][f])
			out[0][f][s] = r0
			out[1][f][s] = r1
		}
	}
	return out
}

func matVecFloat(x [][]float64, w []float64) []float64 {
	out := make([]float64, len(x))
	for s := range x {
		for i, v := range x[s] {
			out[s] += v * w[i]
		}
	}
	return out
}

func logisticLoss(d *Dataset, m *Model) float64 {
	loss := 0.0
	for s := 0; s < d.Samples(); s++ {
		p := m.PredictProb(d.XA[s], d.XB[s])
		p = math.Min(math.Max(p, 1e-9), 1-1e-9)
		loss += -d.Y[s]*math.Log(p) - (1-d.Y[s])*math.Log(1-p)
	}
	return loss / float64(d.Samples())
}
