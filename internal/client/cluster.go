package client

// Cluster-tier operations: the coordinator side of the scatter/gather
// protocol speaks these against individual shard nodes. They ride the same
// pooled-connection/retry machinery as the ordinary request surface.

import (
	"context"
	"fmt"
	"time"

	"cham/internal/rlwe"
	"cham/internal/wire"
)

// TileApply multiplies only the listed row tiles of a registered matrix
// with an encrypted vector, returning the tile-labelled packed
// ciphertexts. Tiles must be strictly ascending.
func (cl *Client) TileApply(id [32]byte, tiles []uint32, vec []*rlwe.Ciphertext) (wire.TileResult, error) {
	return cl.TileApplyTraced(context.TODO(), id, tiles, vec)
}

// TileApplyTraced is TileApply under a context: a trace context riding in
// ctx (trace.NewContext) nests the server's spans under the caller's, and
// cancelling ctx abandons the request — a hedged scatter leg's loser
// returns ctx.Err() at once and its connection is closed, not pooled.
func (cl *Client) TileApplyTraced(ctx context.Context, id [32]byte, tiles []uint32, vec []*rlwe.Ciphertext) (wire.TileResult, error) {
	payload := wire.EncodeTileApply(cl.cfg.Params.R, wire.TileApply{
		ID:             id,
		DeadlineMicros: uint64(cl.cfg.RequestTimeout / time.Microsecond),
		Tiles:          tiles,
		Vector:         vec,
	})
	resp, err := cl.doCtx(ctx, wire.MsgTileApply, wire.MsgTileResult, payload)
	if err != nil {
		return wire.TileResult{}, err
	}
	res, err := wire.DecodeTileResult(cl.cfg.Params.R, resp)
	if err != nil {
		return wire.TileResult{}, &errTransport{err}
	}
	if len(res.Tiles) != len(tiles) {
		return wire.TileResult{}, &errTransport{fmt.Errorf("tile result holds %d tiles, want %d", len(res.Tiles), len(tiles))}
	}
	for i := range tiles {
		if res.Tiles[i] != tiles[i] {
			return wire.TileResult{}, &errTransport{fmt.Errorf("tile result entry %d is tile %d, want %d", i, res.Tiles[i], tiles[i])}
		}
	}
	return res, nil
}

// WarmTiles asks a node to prepare the listed tiles of a registered matrix
// without computing anything — the coordinator pre-positions tiles on a
// joining node before routing traffic at it.
func (cl *Client) WarmTiles(id [32]byte, tiles []uint32) error {
	payload := wire.EncodeTileApply(cl.cfg.Params.R, wire.TileApply{
		ID:             id,
		DeadlineMicros: uint64(cl.cfg.RequestTimeout / time.Microsecond),
		Warm:           true,
		Tiles:          tiles,
	})
	resp, err := cl.do(wire.MsgTileApply, wire.MsgTileResult, payload)
	if err != nil {
		return err
	}
	res, err := wire.DecodeTileResult(cl.cfg.Params.R, resp)
	if err != nil {
		return &errTransport{err}
	}
	if len(res.Tiles) != 0 {
		return &errTransport{fmt.Errorf("warm-up acknowledgement carries %d tiles", len(res.Tiles))}
	}
	return nil
}

// RegistryPull fetches a node's replicated registry: its installed key
// set and every registered matrix in canonical payload form.
func (cl *Client) RegistryPull() (wire.RegistryState, error) {
	resp, err := cl.do(wire.MsgRegistrySync, wire.MsgRegistryState, wire.RegistrySync{}.Encode())
	if err != nil {
		return wire.RegistryState{}, err
	}
	st, err := wire.DecodeRegistryState(resp)
	if err != nil {
		return wire.RegistryState{}, &errTransport{err}
	}
	return st, nil
}

// RegistryPush installs key material and matrix payloads on a node (the
// warm-up transfer a joining node receives) and returns the node's
// resulting registry header. Both arguments are canonical wire payloads;
// either may be empty.
func (cl *Client) RegistryPush(keys []byte, matrices [][]byte) (wire.RegistryState, error) {
	payload := wire.RegistrySync{Push: true, Keys: keys, Matrices: matrices}.Encode()
	resp, err := cl.do(wire.MsgRegistrySync, wire.MsgRegistryState, payload)
	if err != nil {
		return wire.RegistryState{}, err
	}
	st, err := wire.DecodeRegistryState(resp)
	if err != nil {
		return wire.RegistryState{}, &errTransport{err}
	}
	return st, nil
}
