package wire

// Message bodies of the serving protocol. Encoders are deterministic —
// the same logical message always produces the same bytes — so content
// hashes over encoded payloads (key-set hashes, matrix IDs) are stable
// across clients, processes and platforms. Crypto objects travel in the
// encoding of crypto.go, which validates residues against the parameter
// set on decode.

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"cham/internal/bfv"
	"cham/internal/lwe"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

// Limits on repeated elements; each is far above anything the production
// parameter set produces but keeps a malformed count from driving large
// loops.
const (
	// MaxKeyEntries bounds automorphism keys in one SetupKeys (log2 N max 12
	// needs 12).
	MaxKeyEntries = 64
	// MaxVectorChunks bounds the ciphertexts, and the tile labels, of one
	// Apply or Result.
	MaxVectorChunks = 4096
	// MaxErrorDetail bounds the detail string of an Error message.
	MaxErrorDetail = 4096
	// MaxMatrixEntries bounds rows*cols of a RegisterMatrix. A 4096×16384
	// matrix is 64 Mi entries; reduced mod t = 65537 they take 3 bytes
	// each, a 192 MiB payload, inside DefaultMaxFrame.
	MaxMatrixEntries = 1 << 26
)

// Hello is the parameter handshake a client opens every connection with;
// both ends must agree on the ring and plaintext modulus bit-for-bit.
type Hello struct {
	RingN        uint32
	Levels       uint32
	NormalLevels uint32
	T            uint64
}

// HelloFor extracts the handshake fields from a parameter set.
func HelloFor(p bfv.Params) Hello {
	return Hello{
		RingN:        uint32(p.R.N),
		Levels:       uint32(p.R.Levels()),
		NormalLevels: uint32(p.NormalLevels),
		T:            p.T.Q,
	}
}

// Encode serializes the handshake.
func (h Hello) Encode() []byte {
	b := make([]byte, 0, 20)
	b = appendU32(b, h.RingN)
	b = appendU32(b, h.Levels)
	b = appendU32(b, h.NormalLevels)
	b = appendU64(b, h.T)
	return b
}

// DecodeHello parses a Hello payload.
func DecodeHello(payload []byte) (Hello, error) {
	d := NewReader(payload)
	h := Hello{RingN: d.U32(), Levels: d.U32(), NormalLevels: d.U32(), T: d.U64()}
	return h, d.Done()
}

// HelloOK echoes the server's parameters plus its serving shape.
type HelloOK struct {
	Hello
	Engines  uint32 // accelerator engines behind the queue (0 = software only)
	MaxBatch uint32 // coalescing limit (1 = batching disabled)
}

// Encode serializes the echo.
func (h HelloOK) Encode() []byte {
	b := h.Hello.Encode()
	b = appendU32(b, h.Engines)
	return appendU32(b, h.MaxBatch)
}

// DecodeHelloOK parses a HelloOK payload.
func DecodeHelloOK(payload []byte) (HelloOK, error) {
	d := NewReader(payload)
	h := HelloOK{
		Hello:    Hello{RingN: d.U32(), Levels: d.U32(), NormalLevels: d.U32(), T: d.U64()},
		Engines:  d.U32(),
		MaxBatch: d.U32(),
	}
	return h, d.Done()
}

// EncodeSetupKeys serializes a packing-key set: the tile cap M plus the
// automorphism switching keys in ascending index order (the sort makes the
// encoding canonical, so KeyHash names the key set).
func EncodeSetupKeys(r *ring.Ring, keys *lwe.PackingKeys) []byte {
	idx := make([]int, 0, len(keys.Keys))
	for k := range keys.Keys {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	b := make([]byte, 0, setupKeysLen(r, keys))
	b = appendU32(b, uint32(keys.M))
	b = appendU32(b, uint32(len(idx)))
	for _, k := range idx {
		b = appendU32(b, uint32(k))
		b = appendSwitchingKey(b, r, keys.Keys[k])
	}
	return b
}

// setupKeysLen is the encoded size of a packing-key set.
func setupKeysLen(r *ring.Ring, keys *lwe.PackingKeys) int {
	n := 8
	for _, swk := range keys.Keys {
		n += 4 + switchingKeyLen(r, swk)
	}
	return n
}

// DecodeSetupKeys parses and validates a packing-key set against the ring.
func DecodeSetupKeys(r *ring.Ring, payload []byte) (*lwe.PackingKeys, error) {
	d := NewReader(payload)
	m := d.U32()
	count := d.U32()
	if d.Err() == nil && count > MaxKeyEntries {
		return nil, fmt.Errorf("wire: %d key entries exceeds limit %d", count, MaxKeyEntries)
	}
	keys := &lwe.PackingKeys{M: int(m), Keys: map[int]*rlwe.SwitchingKey{}}
	prev := -1
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		k := d.U32()
		if d.Err() == nil && int(k) <= prev {
			return nil, fmt.Errorf("wire: key indices not strictly ascending at %d", k)
		}
		prev = int(k)
		if swk := d.readSwitchingKey(r); swk != nil {
			keys.Keys[int(k)] = swk
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if m == 0 || m&(m-1) != 0 || int64(m) > int64(r.N) {
		return nil, fmt.Errorf("wire: key-set M=%d is not a power of two in [1,N]", m)
	}
	for i := 1; i < int(m); i <<= 1 {
		if keys.Keys[2*i+1] == nil {
			return nil, fmt.Errorf("wire: key set for M=%d misses automorphism key %d", m, 2*i+1)
		}
	}
	return keys, nil
}

// SetupKeysOK carries the canonical hash of the installed key set.
type SetupKeysOK struct{ KeyHash [32]byte }

// Encode serializes the acknowledgement.
func (s SetupKeysOK) Encode() []byte { return append([]byte(nil), s.KeyHash[:]...) }

// DecodeSetupKeysOK parses the acknowledgement.
func DecodeSetupKeysOK(payload []byte) (SetupKeysOK, error) {
	d := NewReader(payload)
	s := SetupKeysOK{KeyHash: d.Hash()}
	return s, d.Done()
}

// matrixHeaderLen is a RegisterMatrix's rows(4) cols(4) width(1).
const matrixHeaderLen = 9

// registerMatrixLen is the encoded size of a rows×cols matrix whose
// entries take w bytes each.
func registerMatrixLen(rows, cols, w int) int { return matrixHeaderLen + w*rows*cols }

// matrixWidth checks A's shape against what a RegisterMatrix may carry and
// returns its entry width: the fewest whole bytes that hold its largest
// entry, 3 for any matrix reduced mod t = 65537 with an entry ≥ 2^16.
func matrixWidth(A [][]uint64) (int, error) {
	rows := len(A)
	if rows == 0 || len(A[0]) == 0 {
		return 0, fmt.Errorf("wire: empty matrix")
	}
	cols := len(A[0])
	if int64(rows)*int64(cols) > MaxMatrixEntries {
		return 0, fmt.Errorf("wire: matrix of %d×%d entries exceeds limit %d", rows, cols, MaxMatrixEntries)
	}
	var largest uint64
	for i, row := range A {
		if len(row) != cols {
			return 0, fmt.Errorf("wire: ragged matrix row %d", i)
		}
		for _, v := range row {
			largest = max(largest, v)
		}
	}
	return wordWidth(largest), nil
}

// appendMatrixHeader appends a RegisterMatrix's shape and entry width.
func appendMatrixHeader(dst []byte, rows, cols, w int) []byte {
	dst = appendU32(dst, uint32(rows))
	dst = appendU32(dst, uint32(cols))
	return append(dst, byte(w))
}

// EncodeRegisterMatrix serializes a cleartext matrix row-major, every
// entry at the matrix's width (matrixWidth). All values must already be
// reduced mod t; decode enforces it. The width follows from the content,
// so the encoding stays canonical and MatrixID needs no t.
func EncodeRegisterMatrix(A [][]uint64) ([]byte, error) {
	w, err := matrixWidth(A)
	if err != nil {
		return nil, err
	}
	rows, cols := len(A), len(A[0])
	b := make([]byte, registerMatrixLen(rows, cols, w))
	appendMatrixHeader(b[:0], rows, cols, w)
	for i, row := range A {
		putWords(b[matrixHeaderLen+i*cols*w:][:cols*w], row, w)
	}
	return b, nil
}

// DecodeRegisterMatrix parses a matrix, validating its shape, that its
// width is the smallest that holds its largest entry (so a matrix has one
// encoding and one ID), and that every entry is a residue mod t.
func DecodeRegisterMatrix(t uint64, payload []byte) ([][]uint64, error) {
	d := NewReader(payload)
	rows, cols, w := d.U32(), d.U32(), int(d.U8())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("wire: empty matrix")
	}
	entries := uint64(rows) * uint64(cols) // cannot overflow: both are uint32
	if entries > MaxMatrixEntries {
		return nil, fmt.Errorf("wire: matrix of %d×%d entries exceeds limit %d", rows, cols, MaxMatrixEntries)
	}
	if w < 1 || w > 8 {
		return nil, fmt.Errorf("wire: matrix entry width %d outside 1 to 8 bytes", w)
	}
	if body := uint64(len(payload) - matrixHeaderLen); body != uint64(w)*entries {
		return nil, fmt.Errorf("wire: matrix payload %d bytes, want %d", body, uint64(w)*entries)
	}
	A := make([][]uint64, rows)
	backing := make([]uint64, entries)
	body, stride := payload[matrixHeaderLen:], int(cols)*w
	var largest uint64
	for i := range A {
		A[i], backing = backing[:cols], backing[cols:]
		largest = max(largest, getWords(A[i], body[i*stride:][:stride], w))
		if largest >= t {
			j := firstAtOrAbove(A[i], t)
			return nil, fmt.Errorf("wire: matrix entry (%d,%d)=%d not reduced mod t=%d", i, j, A[i][j], t)
		}
	}
	if need := wordWidth(largest); need != w {
		return nil, fmt.Errorf("wire: matrix entries sent at %d bytes, its largest fits %d", w, need)
	}
	return A, nil
}

// MatrixID names a matrix by the SHA-256 of its canonical encoding, so
// registration is idempotent and a client can derive the handle offline.
// The encoding streams into the hash through a small buffer and is never
// built whole.
func MatrixID(A [][]uint64) ([32]byte, error) {
	w, err := matrixWidth(A)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	buf := make([]byte, 8<<10)
	h.Write(appendMatrixHeader(buf[:0], len(A), len(A[0]), w))
	for _, row := range A {
		for len(row) > 0 {
			k := min(len(row), len(buf)/w)
			putWords(buf[:k*w], row[:k], w)
			h.Write(buf[:k*w])
			row = row[k:]
		}
	}
	var id [32]byte
	h.Sum(id[:0])
	return id, nil
}

// KeyHash names a packing-key set by the SHA-256 of its canonical encoding.
func KeyHash(r *ring.Ring, keys *lwe.PackingKeys) [32]byte {
	return sha256.Sum256(EncodeSetupKeys(r, keys))
}

// MatrixHandle is the server's name for a registered prepared matrix:
// the content hash plus the serving geometry a client needs to shape
// requests (chunk count) and results (tile count).
type MatrixHandle struct {
	ID     [32]byte
	Rows   uint32
	Cols   uint32
	Chunks uint32 // vector ciphertexts per Apply
	Tiles  uint32 // packed ciphertexts per Result
}

// Encode serializes the handle.
func (h MatrixHandle) Encode() []byte {
	b := make([]byte, 0, 48)
	b = append(b, h.ID[:]...)
	b = appendU32(b, h.Rows)
	b = appendU32(b, h.Cols)
	b = appendU32(b, h.Chunks)
	return appendU32(b, h.Tiles)
}

// DecodeMatrixHandle parses a handle.
func DecodeMatrixHandle(payload []byte) (MatrixHandle, error) {
	d := NewReader(payload)
	h := MatrixHandle{ID: d.Hash(), Rows: d.U32(), Cols: d.U32(), Chunks: d.U32(), Tiles: d.U32()}
	return h, d.Done()
}

// Apply asks the server to multiply a registered matrix with an encrypted
// vector. DeadlineMicros (0 = server default) bounds queue wait + service
// from the server's receive time. Tiles, strictly ascending, narrows the
// job to those row tiles — the shard leg of a cluster scatter — and empty
// means every tile.
//
// Row tiles are the sharding unit because they are the packing unit: a
// prepared matrix yields exactly one packed ciphertext per tile of up to
// N rows, computed independently of every other tile, so a gather that
// places each tile's ciphertext at its index reproduces the single-node
// result bit for bit (the gather-merge invariant DESIGN.md §13 states).
type Apply struct {
	ID             [32]byte
	DeadlineMicros uint64
	Tiles          []uint32
	Vector         []*rlwe.Ciphertext
}

// EncodeApply serializes the request into one buffer sized up front.
func EncodeApply(r *ring.Ring, a Apply) []byte {
	b := make([]byte, 0, 32+8+4+4*len(a.Tiles)+ciphertextsLen(r, a.Vector))
	b = append(b, a.ID[:]...)
	b = appendU64(b, a.DeadlineMicros)
	b = appendTileList(b, a.Tiles)
	return appendCiphertexts(b, r, a.Vector)
}

// DecodeApply parses the request, validating the tile list and each vector
// chunk against the ring.
func DecodeApply(r *ring.Ring, payload []byte) (Apply, error) {
	d := NewReader(payload)
	a := Apply{ID: d.Hash(), DeadlineMicros: d.U64()}
	a.Tiles = decodeTileList(d)
	a.Vector = d.readCiphertexts(r)
	if err := d.Done(); err != nil {
		return Apply{}, err
	}
	return a, nil
}

// Result carries the packed HMVP output of an M-row matrix over ring
// degree N: one RLWE ciphertext per row tile, every tile in order — or,
// when Tiles is set, Packed[i] is tile Tiles[i].
type Result struct {
	M      uint32 // total result rows
	N      uint32 // ring degree (slot stride computation)
	Tiles  []uint32
	Packed []*rlwe.Ciphertext
}

// EncodeResult serializes a result into one buffer sized up front.
func EncodeResult(r *ring.Ring, res Result) []byte {
	b := make([]byte, 0, 8+4+4*len(res.Tiles)+ciphertextsLen(r, res.Packed))
	b = appendU32(b, res.M)
	b = appendU32(b, res.N)
	b = appendTileList(b, res.Tiles)
	return appendCiphertexts(b, r, res.Packed)
}

// DecodeResult parses a result and holds its header to what it carries,
// so a caller can decrypt it without trusting the peer: N is the ring
// degree, and the ciphertexts are the ⌈M/N⌉ tiles in order, or one per
// label with every label below ⌈M/N⌉.
func DecodeResult(r *ring.Ring, payload []byte) (Result, error) {
	d := NewReader(payload)
	res := Result{M: d.U32(), N: d.U32()}
	if d.Err() == nil && res.N != uint32(r.N) {
		return Result{}, fmt.Errorf("wire: result for ring degree %d, the ring has %d", res.N, r.N)
	}
	res.Tiles = decodeTileList(d)
	res.Packed = d.readCiphertexts(r)
	if err := d.Done(); err != nil {
		return Result{}, err
	}
	tiles := (uint64(res.M) + uint64(r.N) - 1) / uint64(r.N)
	switch n := len(res.Tiles); {
	case n == 0 && uint64(len(res.Packed)) != tiles:
		return Result{}, fmt.Errorf("wire: result of %d rows carries %d ciphertexts, want %d", res.M, len(res.Packed), tiles)
	case n > 0 && len(res.Packed) != n:
		return Result{}, fmt.Errorf("wire: result labels %d tiles but carries %d ciphertexts", n, len(res.Packed))
	case n > 0 && uint64(res.Tiles[n-1]) >= tiles:
		return Result{}, fmt.Errorf("wire: result tile %d out of range for %d rows", res.Tiles[n-1], res.M)
	}
	return res, nil
}

// appendTileList writes a u32 count and the tile indices.
func appendTileList(dst []byte, tiles []uint32) []byte {
	dst = appendU32(dst, uint32(len(tiles)))
	for _, t := range tiles {
		dst = appendU32(dst, t)
	}
	return dst
}

// decodeTileList reads a u32 count, bounded by MaxVectorChunks, and that
// many strictly ascending tile indices. An empty list is nil: every tile.
func decodeTileList(d *Reader) []uint32 {
	count := d.U32()
	if d.err == nil && count > MaxVectorChunks {
		d.fail("%d tiles exceeds limit %d", count, MaxVectorChunks)
	}
	var tiles []uint32
	for i := uint32(0); i < count && d.err == nil; i++ {
		t := d.U32()
		if d.err == nil && i > 0 && t <= tiles[i-1] {
			d.fail("tile indices not strictly ascending at %d", t)
		}
		tiles = append(tiles, t)
	}
	if d.err != nil {
		return nil
	}
	return tiles
}
