// Package cluster is the horizontal tier over chamserve: a coordinator
// that shards each registered matrix's row tiles across N nodes with a
// consistent-hash ring, scatters tile-subset jobs, gathers the packed
// ciphertexts back into the exact single-node result, and rides out
// stragglers and dead shards with hedged retries and a re-scatter pass
// over the fixed node set, every node of which holds every matrix.
//
// Row tiles are the sharding unit because they are the packing unit: one
// packed RLWE ciphertext per tile of up to N rows, each computed
// independently, so a gather that places tile i's ciphertext at index i
// is bit-identical to a single node running the whole matrix. That
// gather-merge invariant is what the cluster test harness pins down
// against internal/core and internal/ref.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node. 64 points
// per node keeps the expected per-node load within a few percent of even
// for small clusters without making ring construction noticeable.
const DefaultVNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	h    uint64
	node int // index into nodes
}

// Ring is an immutable consistent-hash ring over named nodes, so lookups
// never lock.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// NewRing builds a ring with vnodes virtual points per node (0 selects
// DefaultVNodes). Node names must be unique and non-empty.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for ni, name := range nodes {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			var buf [8]byte
			binary.LittleEndian.PutUint32(buf[0:], uint32(v))
			binary.LittleEndian.PutUint32(buf[4:], uint32(len(name)))
			h := sha256.Sum256(append(buf[:], name...))
			r.points = append(r.points, ringPoint{h: binary.LittleEndian.Uint64(h[:8]), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node // total order even on hash ties
	})
	return r, nil
}

// Nodes returns the node names (do not mutate).
func (r *Ring) Nodes() []string { return r.nodes }

// TileKey names one row tile of one matrix: the SHA-256 of the matrix's
// content hash concatenated with the little-endian tile index. The matrix
// ID is already the wire layer's canonical content hash, so the shard map
// is a pure function of matrix content — every coordinator computes the
// same placement with no agreement protocol.
func TileKey(id [32]byte, tile uint32) [32]byte {
	var buf [36]byte
	copy(buf[:32], id[:])
	binary.LittleEndian.PutUint32(buf[32:], tile)
	return sha256.Sum256(buf[:])
}

// owner returns the index of the first ring point at or after the key's
// hash (wrapping), i.e. the primary owner.
func (r *Ring) ownerPoint(key [32]byte) int {
	h := binary.LittleEndian.Uint64(key[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node index that owns a key.
func (r *Ring) Owner(key [32]byte) int {
	return r.points[r.ownerPoint(key)].node
}

// Replicas returns up to n distinct node indices for a key: the owner
// first, then the next distinct nodes walking the ring — the attempt
// order for hedged scatter legs and failover.
func (r *Ring) Replicas(key [32]byte, n int) []int {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		n = 1
	}
	out := make([]int, 0, n)
	seen := make([]bool, len(r.nodes))
	for i, start := 0, r.ownerPoint(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Assign partitions a matrix's tiles across the nodes: element k of the
// result is node k's strictly ascending tile list. Every tile lands on
// exactly one node (the partition invariant FuzzShardRouter enforces).
func (r *Ring) Assign(id [32]byte, tiles int) [][]uint32 {
	out := make([][]uint32, len(r.nodes))
	for t := 0; t < tiles; t++ {
		n := r.Owner(TileKey(id, uint32(t)))
		out[n] = append(out[n], uint32(t))
	}
	return out
}
