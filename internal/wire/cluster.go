package wire

// Cluster-tier messages: the registry synchronization a joining node uses
// to pull (or a coordinator to push) the replicated matrix registry before
// the node takes traffic. It follows the package's rules: deterministic
// encodings, strict bounds-checked decoding that never panics. The
// tile-subset jobs a coordinator scatters at shard nodes are Apply
// requests with a tile list (messages.go).
//
// Row tiles are the sharding unit because they are the packing unit: a
// prepared matrix yields exactly one packed ciphertext per tile of up to
// N rows, computed independently of every other tile, so a gather that
// places each tile's ciphertext at its index reproduces the single-node
// result bit for bit (the gather-merge invariant DESIGN.md §13 states).

import "fmt"

// MaxRegistryEntries bounds matrices in one RegistrySync/RegistryState
// (the per-frame byte budget MaxFrame is the real limit; this keeps a
// malformed count from driving a large loop).
const MaxRegistryEntries = 1024

// RegistrySync is the replicated-registry transfer. A pull (Push=false,
// no payloads) asks a node for its registry; a push ships key material
// and matrix payloads for the node to install. Matrix payloads are
// canonical RegisterMatrix encodings, so their SHA-256 is their ID and
// installation is idempotent. Keys is a canonical SetupKeys payload
// (empty = absent).
type RegistrySync struct {
	Push     bool
	Keys     []byte
	Matrices [][]byte
}

// Encode serializes the sync request.
func (s RegistrySync) Encode() []byte {
	b := appendFlag(nil, s.Push)
	b = appendBlob(b, s.Keys)
	b = appendU32(b, uint32(len(s.Matrices)))
	for _, m := range s.Matrices {
		b = appendBlob(b, m)
	}
	return b
}

// DecodeRegistrySync parses a sync request.
func DecodeRegistrySync(payload []byte) (RegistrySync, error) {
	d := NewReader(payload)
	s := RegistrySync{Push: d.flag("registry sync push")}
	keys := d.Blob()
	if len(keys) > 0 {
		s.Keys = append([]byte(nil), keys...)
	}
	mats, err := decodeMatrixPayloads(d)
	if err != nil {
		return RegistrySync{}, err
	}
	s.Matrices = mats
	if err := d.Done(); err != nil {
		return RegistrySync{}, err
	}
	return s, nil
}

// RegistryState is the response to a RegistrySync: the node's installed
// key set (canonical payload + hash; zero hash = no keys yet) and its
// registered matrix payloads. A push is acknowledged with the resulting
// state header only (no payloads echoed back).
type RegistryState struct {
	KeyHash  [32]byte
	Keys     []byte
	Matrices [][]byte
}

// Encode serializes the state.
func (s RegistryState) Encode() []byte {
	b := append([]byte(nil), s.KeyHash[:]...)
	b = appendBlob(b, s.Keys)
	b = appendU32(b, uint32(len(s.Matrices)))
	for _, m := range s.Matrices {
		b = appendBlob(b, m)
	}
	return b
}

// DecodeRegistryState parses the state.
func DecodeRegistryState(payload []byte) (RegistryState, error) {
	d := NewReader(payload)
	s := RegistryState{KeyHash: d.Hash()}
	keys := d.Blob()
	if len(keys) > 0 {
		s.Keys = append([]byte(nil), keys...)
	}
	mats, err := decodeMatrixPayloads(d)
	if err != nil {
		return RegistryState{}, err
	}
	s.Matrices = mats
	if err := d.Done(); err != nil {
		return RegistryState{}, err
	}
	return s, nil
}

// decodeMatrixPayloads reads a bounded list of matrix payload blobs.
func decodeMatrixPayloads(d *Reader) ([][]byte, error) {
	count := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if count > MaxRegistryEntries {
		return nil, fmt.Errorf("wire: %d registry entries exceeds limit %d", count, MaxRegistryEntries)
	}
	var mats [][]byte
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		blob := d.Blob()
		if d.Err() != nil {
			break
		}
		mats = append(mats, append([]byte(nil), blob...))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return mats, nil
}
