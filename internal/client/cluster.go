package client

// Cluster-tier operations: the coordinator side of the scatter/gather
// protocol speaks these against individual shard nodes. They ride the same
// pooled-connection/retry machinery as the ordinary request surface.

import (
	"context"
	"fmt"

	"cham/internal/rlwe"
	"cham/internal/wire"
)

// TileApply multiplies only the listed row tiles of a registered matrix
// with an encrypted vector, returning the tile-labelled packed
// ciphertexts. Tiles must be strictly ascending.
func (cl *Client) TileApply(id [32]byte, tiles []uint32, vec []*rlwe.Ciphertext) (wire.TileResult, error) {
	return cl.TileApplyCtx(context.TODO(), id, tiles, vec)
}

// TileApplyCtx is TileApply under a context, with ApplyCtx's meaning: a
// hedged scatter leg's loser returns ctx.Err() at once and its
// connection is closed, not pooled.
func (cl *Client) TileApplyCtx(ctx context.Context, id [32]byte, tiles []uint32, vec []*rlwe.Ciphertext) (wire.TileResult, error) {
	r := cl.cfg.Params.R
	return call(ctx, cl, wire.MsgTileApply, wire.MsgTileResult,
		wire.EncodeTileApply(r, wire.TileApply{ID: id, DeadlineMicros: cl.deadlineMicros(ctx), Tiles: tiles, Vector: vec}),
		func(b []byte) (wire.TileResult, error) {
			res, err := wire.DecodeTileResult(r, b)
			if err == nil && len(res.Tiles) != len(tiles) {
				err = fmt.Errorf("tile result holds %d tiles, want %d", len(res.Tiles), len(tiles))
			}
			for i := 0; err == nil && i < len(tiles); i++ {
				if res.Tiles[i] != tiles[i] {
					err = fmt.Errorf("tile result entry %d is tile %d, want %d", i, res.Tiles[i], tiles[i])
				}
			}
			return res, err
		})
}

// WarmTiles asks a node to prepare the listed tiles of a registered matrix
// without computing anything — the coordinator pre-positions tiles on a
// joining node before routing traffic at it.
func (cl *Client) WarmTiles(id [32]byte, tiles []uint32) error {
	r := cl.cfg.Params.R
	ctx := context.TODO()
	_, err := call(ctx, cl, wire.MsgTileApply, wire.MsgTileResult,
		wire.EncodeTileApply(r, wire.TileApply{ID: id, DeadlineMicros: cl.deadlineMicros(ctx), Warm: true, Tiles: tiles}),
		func(b []byte) (wire.TileResult, error) {
			res, err := wire.DecodeTileResult(r, b)
			if err == nil && len(res.Tiles) != 0 {
				err = fmt.Errorf("warm-up acknowledgement carries %d tiles", len(res.Tiles))
			}
			return res, err
		})
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
