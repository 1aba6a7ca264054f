package client

// Cluster-tier operations: the coordinator side of the scatter/gather
// protocol speaks these against individual shard nodes. They ride the same
// pooled-connection/retry machinery, and the same compute call, as the
// ordinary request surface.

import (
	"context"

	"cham/internal/rlwe"
	"cham/internal/wire"
)

// TileApply multiplies only the listed row tiles of a registered matrix
// with an encrypted vector, returning the tile-labelled packed
// ciphertexts. Tiles must be strictly ascending.
func (cl *Client) TileApply(id [32]byte, tiles []uint32, vec []*rlwe.Ciphertext) (wire.Result, error) {
	return cl.TileApplyCtx(context.TODO(), id, tiles, vec)
}

// TileApplyCtx is TileApply under a context, with ApplyCtx's meaning: a
// hedged scatter leg's loser returns ctx.Err() at once and its
// connection is closed, not pooled.
func (cl *Client) TileApplyCtx(ctx context.Context, id [32]byte, tiles []uint32, vec []*rlwe.Ciphertext) (wire.Result, error) {
	return cl.compute(ctx, wire.Apply{ID: id, Tiles: tiles, Vector: vec})
}
