package beaver

import (
	"math/rand"
	"testing"

	"cham/internal/bfv"
	"cham/internal/core"
)

func TestGenerateTripleShapes(t *testing.T) {
	p, err := bfv.NewChamParams(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sk := p.KeyGen(rng)
	g, err := NewGenerator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct{ m, n int }{
		{1, 1}, {8, 64}, {64, 64}, {5, 10}, {40, 100}, {70, 64}, // 70 > N: row tiling
	}
	for _, s := range shapes {
		w := make([][]uint64, s.m)
		for i := range w {
			w[i] = make([]uint64, s.n)
			for j := range w[i] {
				w[i][j] = rng.Uint64() % p.T.Q
			}
		}
		cs, ss, err := g.Generate(rng, sk, w)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.m, s.n, err)
		}
		if err := Verify(p, w, cs, ss); err != nil {
			t.Fatalf("%dx%d: %v", s.m, s.n, err)
		}
	}
}

// TestSharesLookRandom: neither share alone should reveal W·r — check the
// marginal distribution is not constant/degenerate.
func TestSharesLookRandom(t *testing.T) {
	p, _ := bfv.NewChamParams(32)
	rng := rand.New(rand.NewSource(2))
	sk := p.KeyGen(rng)
	g, _ := NewGenerator(p, rng, sk, 32)
	w := [][]uint64{make([]uint64, 32)} // all-zero layer: W·r = 0
	cs, ss, err := g.Generate(rng, sk, w)
	if err != nil {
		t.Fatal(err)
	}
	// With W = 0, c = -s: shares must still be non-trivial values.
	if cs.C[0] == 0 && ss.S[0] == 0 {
		t.Error("shares are trivially zero")
	}
	if p.T.Add(cs.C[0], ss.S[0]) != 0 {
		t.Error("zero-layer triple must sum to zero")
	}
}

func TestGenerateBatch(t *testing.T) {
	p, _ := bfv.NewChamParams(32)
	rng := rand.New(rand.NewSource(3))
	sk := p.KeyGen(rng)
	g, _ := NewGenerator(p, rng, sk, 32)

	// A small "network": three layers of different shapes.
	layers := make([][][]uint64, 3)
	dims := []struct{ m, n int }{{16, 32}, {8, 16}, {4, 8}}
	for l, d := range dims {
		layers[l] = make([][]uint64, d.m)
		for i := range layers[l] {
			layers[l][i] = make([]uint64, d.n)
			for j := range layers[l][i] {
				layers[l][i][j] = rng.Uint64() % p.T.Q
			}
		}
	}
	cls, svs, err := g.GenerateBatch(rng, sk, layers)
	if err != nil {
		t.Fatal(err)
	}
	for l := range layers {
		if err := Verify(p, layers[l], cls[l], svs[l]); err != nil {
			t.Errorf("layer %d: %v", l, err)
		}
	}
	// Batch with a broken layer reports the layer index.
	layers[1] = [][]uint64{}
	if _, _, err := g.GenerateBatch(rng, sk, layers); err == nil {
		t.Error("empty layer accepted")
	}
}

// TestOnlineLinear: the shares produced by the online phase must sum to
// W·x for a fresh input x.
func TestOnlineLinear(t *testing.T) {
	p, _ := bfv.NewChamParams(32)
	rng := rand.New(rand.NewSource(4))
	sk := p.KeyGen(rng)
	g, _ := NewGenerator(p, rng, sk, 32)

	m, n := 8, 32
	w := make([][]uint64, m)
	for i := range w {
		w[i] = make([]uint64, n)
		for j := range w[i] {
			w[i][j] = rng.Uint64() % p.T.Q
		}
	}
	cs, ss, err := g.Generate(rng, sk, w)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64() % p.T.Q
	}
	co, so, err := OnlineLinear(p, w, x, cs, ss)
	if err != nil {
		t.Fatal(err)
	}
	want := core.PlainMatVec(p, w, x)
	for i := range want {
		if p.T.Add(co[i], so[i]) != want[i] {
			t.Fatalf("online share sum wrong at %d", i)
		}
	}
	if _, _, err := OnlineLinear(p, w, x[:n-1], cs, ss); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestGenerateValidation(t *testing.T) {
	p, _ := bfv.NewChamParams(16)
	rng := rand.New(rand.NewSource(5))
	sk := p.KeyGen(rng)
	g, _ := NewGenerator(p, rng, sk, 16)
	if _, _, err := g.Generate(rng, sk, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, _, err := g.Generate(rng, sk, [][]uint64{{}}); err == nil {
		t.Error("zero-column matrix accepted")
	}
}

// TestRepeatedLayerTriples: Generate over one layer, many times in a row,
// must yield a valid and fresh triple each time.
func TestRepeatedLayerTriples(t *testing.T) {
	p, _ := bfv.NewChamParams(64)
	rng := rand.New(rand.NewSource(6))
	sk := p.KeyGen(rng)
	g, _ := NewGenerator(p, rng, sk, 64)

	m, n := 24, 100 // non-power-of-two rows, multi-chunk columns
	w := make([][]uint64, m)
	for i := range w {
		w[i] = make([]uint64, n)
		for j := range w[i] {
			w[i][j] = rng.Uint64() % p.T.Q
		}
	}
	var prev *ServerShare
	for k := 0; k < 3; k++ {
		cs, ss, err := g.Generate(rng, sk, w)
		if err != nil {
			t.Fatalf("triple %d: %v", k, err)
		}
		if err := Verify(p, w, cs, ss); err != nil {
			t.Fatalf("triple %d: %v", k, err)
		}
		if prev != nil && prev.S[0] == ss.S[0] && prev.S[1] == ss.S[1] {
			t.Errorf("triple %d repeats the previous server share", k)
		}
		prev = ss
	}
}
