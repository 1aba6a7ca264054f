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

// WarmTiles asks a node to prepare the listed tiles of a registered matrix
// without computing anything — the coordinator pre-positions tiles on a
// joining node before routing traffic at it.
func (cl *Client) WarmTiles(id [32]byte, tiles []uint32) error {
	_, err := cl.compute(context.TODO(), wire.Apply{ID: id, Warm: true, Tiles: tiles})
	return err
}

// RegistryPull fetches a node's replicated registry: its installed key
// set and every registered matrix in canonical payload form.
func (cl *Client) RegistryPull() (wire.RegistryState, error) {
	return call(context.TODO(), cl, wire.MsgRegistrySync, wire.MsgRegistryState,
		wire.RegistrySync{}.Encode(), wire.DecodeRegistryState)
}

// RegistryPush installs key material and matrix payloads on a node (the
// warm-up transfer a joining node receives) and returns the node's
// resulting registry header. Both arguments are canonical wire payloads;
// either may be empty.
func (cl *Client) RegistryPush(keys []byte, matrices [][]byte) (wire.RegistryState, error) {
	return call(context.TODO(), cl, wire.MsgRegistrySync, wire.MsgRegistryState,
		wire.RegistrySync{Push: true, Keys: keys, Matrices: matrices}.Encode(), wire.DecodeRegistryState)
}
