// Package beaver implements Delphi-style matrix Beaver-triple generation
// (§V-B.4): the preprocessing phase of cryptographic neural-network
// inference, where each linear layer consumes one triple
//
//	client: (r, c)   server: (W, s)   with   c + s ≡ W·r (mod t).
//
// The client encrypts a random vector r; the server evaluates the layer
// homomorphically — exactly one CHAM HMVP — masks the result with its
// random share s, and returns it. The online phase then needs only
// cleartext arithmetic on secret shares (OnlineLinear).
package beaver

import (
	"fmt"
	"math/rand"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/rlwe"
)

// ClientShare is the client half of a triple.
type ClientShare struct {
	R []uint64 // the random mask vector
	C []uint64 // c = W·r - s (decrypted HMVP output)
}

// ServerShare is the server half.
type ServerShare struct {
	S []uint64
}

// Generator produces triples for a fixed key setup.
type Generator struct {
	P  bfv.Params
	Ev *core.Evaluator
}

// NewGenerator builds a generator whose packing keys cover layers of up
// to maxRows output neurons.
func NewGenerator(p bfv.Params, rng *rand.Rand, sk *rlwe.SecretKey, maxRows int) (*Generator, error) {
	ev, err := core.NewEvaluator(p, rng, sk, maxRows)
	if err != nil {
		return nil, err
	}
	return &Generator{P: p, Ev: ev}, nil
}

// Generate runs the preprocessing protocol for one m×n layer matrix W.
// The client key sk both encrypts r and decrypts the masked result (in a
// deployment the decryption happens client-side; the server only ever
// sees ciphertexts and its own mask s).
func (g *Generator) Generate(rng *rand.Rand, sk *rlwe.SecretKey, w [][]uint64) (*ClientShare, *ServerShare, error) {
	if len(w) == 0 || len(w[0]) == 0 {
		return nil, nil, fmt.Errorf("beaver: empty layer matrix")
	}
	// Client: draw the random vector r and encrypt it.
	r := make([]uint64, len(w[0]))
	for i := range r {
		r[i] = rng.Uint64() % g.P.T.Q
	}
	ctR := core.EncryptVector(g.P, rng, sk, r)

	// Server: homomorphic W·r, then subtract the random share s by adding
	// its negation to the packed result, so the mask never leaves the
	// server in the clear.
	res, err := g.Ev.MatVec(w, ctR)
	if err != nil {
		return nil, nil, err
	}
	s := make([]uint64, res.M)
	negS := make([]uint64, res.M)
	for i := range s {
		s[i] = rng.Uint64() % g.P.T.Q
		negS[i] = g.P.T.Neg(s[i])
	}
	core.AddResult(g.P, res, negS)
	c := core.DecryptResult(g.P, res, sk)
	return &ClientShare{R: r, C: c}, &ServerShare{S: s}, nil
}

// GenerateBatch produces one triple per layer matrix — the bulk
// preprocessing workload CHAM accelerates 49×–144×.
func (g *Generator) GenerateBatch(rng *rand.Rand, sk *rlwe.SecretKey, layers [][][]uint64) ([]*ClientShare, []*ServerShare, error) {
	clients := make([]*ClientShare, len(layers))
	servers := make([]*ServerShare, len(layers))
	for i, w := range layers {
		c, s, err := g.Generate(rng, sk, w)
		if err != nil {
			return nil, nil, fmt.Errorf("beaver: layer %d: %w", i, err)
		}
		clients[i], servers[i] = c, s
	}
	return clients, servers, nil
}

// Verify checks the triple invariant c + s ≡ W·r (mod t).
func Verify(p bfv.Params, w [][]uint64, cs *ClientShare, ss *ServerShare) error {
	want := core.PlainMatVec(p, w, cs.R)
	if len(cs.C) != len(want) || len(ss.S) != len(want) {
		return fmt.Errorf("beaver: share length mismatch")
	}
	for i := range want {
		if p.T.Add(cs.C[i], ss.S[i]) != want[i] {
			return fmt.Errorf("beaver: triple invariant broken at row %d", i)
		}
	}
	return nil
}

// OnlineLinear runs the Delphi online phase for one layer on a secret
// input x held by the client: the client reveals δ = x - r; the server
// returns its share W·δ + s; the client's share is c. The two shares sum
// to W·x.
func OnlineLinear(p bfv.Params, w [][]uint64, x []uint64, cs *ClientShare, ss *ServerShare) (clientOut, serverOut []uint64, err error) {
	if len(x) != len(cs.R) {
		return nil, nil, fmt.Errorf("beaver: input length %d, mask length %d", len(x), len(cs.R))
	}
	delta := make([]uint64, len(x))
	for i := range x {
		delta[i] = p.T.Sub(p.T.Reduce(x[i]), cs.R[i])
	}
	wd := core.PlainMatVec(p, w, delta)
	serverOut = make([]uint64, len(wd))
	for i := range wd {
		serverOut[i] = p.T.Add(wd[i], ss.S[i])
	}
	return cs.C, serverOut, nil
}
