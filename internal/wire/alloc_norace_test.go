//go:build !race

package wire

// Allocation counts. AllocsPerRun is meaningless under the race detector,
// which allocates on its own account, so these run without it.

import (
	"testing"

	"cham/internal/core"
	"cham/internal/testutil"
)

// TestEncodersAllocateOnce: a door answers through AppendFrame(nil, ...),
// and EncodeApply and EncodeResult size their buffer up front, so each is
// one allocation however many ciphertexts the message carries.
func TestEncodersAllocateOnce(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, 2*p.R.N, p.T.Q))
	a := Apply{Tiles: []uint32{0, 1}, Vector: ctV}
	res := Result{M: uint32(2 * p.R.N), N: uint32(p.R.N), Packed: ctV}
	payload := []byte{1, 2, 3, 4, 5}
	for name, encode := range map[string]func(){
		"AppendFrame":  func() { AppendFrame(nil, MsgResult, 1, TraceHeader{Flags: TraceFlagSampled}, payload) },
		"EncodeApply":  func() { EncodeApply(p.R, a) },
		"EncodeResult": func() { EncodeResult(p.R, res) },
	} {
		if n := testing.AllocsPerRun(20, encode); n != 1 {
			t.Errorf("%s allocated %v times, want 1", name, n)
		}
	}
}
