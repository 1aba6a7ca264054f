package chamnp

// RemoteBackend runs MatMul against a matrix held by a chamserve server
// (or a chamcluster gateway — the wire surface is identical): the lanes
// travel as Apply requests over the pooled client connection and the
// packed results come back over the wire. The local/remote split is
// invisible to MatMul — same Backend interface, same bit-exact output.

import (
	"fmt"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/rlwe"
	"cham/internal/wire"
)

// RemoteBackend is a MatMul backend whose prepared matrix lives behind
// a CHAM serving endpoint.
type RemoteBackend struct {
	cl *client.Client
	h  wire.MatrixHandle
	p  bfv.Params
}

// Remote wraps a registered matrix handle as a MatMul backend. The
// client must talk to the endpoint that issued the handle (and that
// already holds the packing keys for this secret).
func Remote(cl *client.Client, h wire.MatrixHandle, p bfv.Params) *RemoteBackend {
	return &RemoteBackend{cl: cl, h: h, p: p}
}

// Rows returns the prepared matrix's row count.
func (r *RemoteBackend) Rows() int { return int(r.h.Rows) }

// Cols returns the prepared matrix's column count.
func (r *RemoteBackend) Cols() int { return int(r.h.Cols) }

// Chunks returns the vector ciphertexts expected per lane.
func (r *RemoteBackend) Chunks() int { return int(r.h.Chunks) }

// NewResult allocates a Result shaped like the server's replies, so
// MatMulInto can copy them into caller-owned storage.
func (r *RemoteBackend) NewResult() *core.Result {
	res := &core.Result{M: r.Rows(), N: r.p.R.N, Packed: make([]*rlwe.Ciphertext, int(r.h.Tiles))}
	for i := range res.Packed {
		res.Packed[i] = &rlwe.Ciphertext{B: r.p.R.NewPoly(r.p.NormalLevels), A: r.p.R.NewPoly(r.p.NormalLevels)}
	}
	return res
}

// ApplyBatchInto sends one Apply round trip per lane and copies the
// packed replies into the caller's Results. The whole batch is
// validated up front — every vector by core's rule (CheckVectorShape)
// against the handle's chunk count, every result against its tile
// count — so misuse fails before the first network write.
func (r *RemoteBackend) ApplyBatchInto(res []*core.Result, vecs [][]*rlwe.Ciphertext) error {
	if len(vecs) == 0 {
		return fmt.Errorf("%w: empty batch", core.ErrVectorLength)
	}
	if len(res) != len(vecs) {
		return fmt.Errorf("%w: batch has %d vectors but %d result slots", core.ErrResultShape, len(vecs), len(res))
	}
	for k, vec := range vecs {
		if err := core.CheckVectorShape(r.p, r.Chunks(), vec); err != nil {
			return fmt.Errorf("batch vector %d: %w", k, err)
		}
		if res[k] == nil || len(res[k].Packed) != int(r.h.Tiles) {
			return fmt.Errorf("batch result %d: %w: want %d tiles (allocate with NewResult)",
				k, core.ErrResultShape, r.h.Tiles)
		}
	}
	for k, vec := range vecs {
		wr, err := r.cl.Apply(r.h.ID, vec)
		if err != nil {
			return fmt.Errorf("batch vector %d: %w", k, err)
		}
		if len(wr.Packed) != len(res[k].Packed) {
			return fmt.Errorf("batch result %d: %w: server returned %d tiles, want %d",
				k, core.ErrResultShape, len(wr.Packed), len(res[k].Packed))
		}
		for ti, ct := range wr.Packed {
			res[k].Packed[ti].CopyFrom(ct)
		}
		res[k].M, res[k].N = int(wr.M), int(wr.N)
	}
	return nil
}
