package wire

// Message bodies of the serving protocol. Encoders are deterministic —
// the same logical message always produces the same bytes — so content
// hashes over encoded payloads (key-set hashes, matrix IDs) are stable
// across clients, processes and platforms. Crypto objects travel in
// internal/codec's self-describing encoding, which already validates
// residues against the parameter set on decode.

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"cham/internal/bfv"
	"cham/internal/codec"
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
	// MaxVectorChunks bounds ciphertext chunks per Apply / tiles per Result.
	MaxVectorChunks = 4096
	// MaxErrorDetail bounds the detail string of an Error message.
	MaxErrorDetail = 4096
	// MaxMatrixEntries bounds rows*cols of a RegisterMatrix (a 4096×16384
	// matrix is 64 Mi entries).
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
	b := appendU32(nil, uint32(keys.M))
	b = appendU32(b, uint32(len(idx)))
	for _, k := range idx {
		b = appendU32(b, uint32(k))
		b = appendBlob(b, codec.EncodeSwitchingKey(r, keys.Keys[k]))
	}
	return b
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
		blob := d.Blob()
		if d.Err() != nil {
			break
		}
		if int(k) <= prev {
			return nil, fmt.Errorf("wire: key indices not strictly ascending at %d", k)
		}
		prev = int(k)
		swk, err := codec.DecodeSwitchingKey(r, blob)
		if err != nil {
			return nil, fmt.Errorf("wire: key %d: %w", k, err)
		}
		keys.Keys[int(k)] = swk
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

// EncodeRegisterMatrix serializes a cleartext matrix row-major. All values
// must already be reduced mod t; decode enforces it.
func EncodeRegisterMatrix(A [][]uint64) ([]byte, error) {
	rows := len(A)
	if rows == 0 || len(A[0]) == 0 {
		return nil, fmt.Errorf("wire: empty matrix")
	}
	cols := len(A[0])
	if int64(rows)*int64(cols) > MaxMatrixEntries {
		return nil, fmt.Errorf("wire: matrix of %d×%d entries exceeds limit %d", rows, cols, MaxMatrixEntries)
	}
	b := make([]byte, 0, 8+8*rows*cols)
	b = appendU32(b, uint32(rows))
	b = appendU32(b, uint32(cols))
	for i, row := range A {
		if len(row) != cols {
			return nil, fmt.Errorf("wire: ragged matrix row %d", i)
		}
		for _, v := range row {
			b = appendU64(b, v)
		}
	}
	return b, nil
}

// DecodeRegisterMatrix parses a matrix, validating shape and that every
// entry is a residue mod t.
func DecodeRegisterMatrix(t uint64, payload []byte) ([][]uint64, error) {
	d := NewReader(payload)
	rows := d.U32()
	cols := d.U32()
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
	if uint64(len(payload)-8) != 8*entries {
		return nil, fmt.Errorf("wire: matrix payload %d bytes, want %d", len(payload)-8, 8*entries)
	}
	A := make([][]uint64, rows)
	backing := make([]uint64, entries)
	for i := range A {
		A[i], backing = backing[:cols], backing[cols:]
		for j := range A[i] {
			v := d.U64()
			if v >= t {
				return nil, fmt.Errorf("wire: matrix entry (%d,%d)=%d not reduced mod t=%d", i, j, v, t)
			}
			A[i][j] = v
		}
	}
	return A, d.Done()
}

// MatrixID names a matrix by the SHA-256 of its canonical encoding, so
// registration is idempotent and a client can derive the handle offline.
func MatrixID(A [][]uint64) ([32]byte, error) {
	payload, err := EncodeRegisterMatrix(A)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(payload), nil
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
// from the server's receive time.
type Apply struct {
	ID             [32]byte
	DeadlineMicros uint64
	Vector         []*rlwe.Ciphertext
}

// EncodeApply serializes the request.
func EncodeApply(r *ring.Ring, a Apply) []byte {
	b := append([]byte(nil), a.ID[:]...)
	b = appendU64(b, a.DeadlineMicros)
	b = appendU32(b, uint32(len(a.Vector)))
	for _, ct := range a.Vector {
		b = appendBlob(b, codec.EncodeCiphertext(r, ct))
	}
	return b
}

// DecodeApply parses the request, validating each chunk against the ring.
func DecodeApply(r *ring.Ring, payload []byte) (Apply, error) {
	d := NewReader(payload)
	a := Apply{ID: d.Hash(), DeadlineMicros: d.U64()}
	count := d.U32()
	if d.Err() == nil && count > MaxVectorChunks {
		return Apply{}, fmt.Errorf("wire: %d vector chunks exceeds limit %d", count, MaxVectorChunks)
	}
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		blob := d.Blob()
		if d.Err() != nil {
			break
		}
		ct, err := codec.DecodeCiphertext(r, blob)
		if err != nil {
			return Apply{}, fmt.Errorf("wire: vector chunk %d: %w", i, err)
		}
		a.Vector = append(a.Vector, ct)
	}
	if err := d.Done(); err != nil {
		return Apply{}, err
	}
	return a, nil
}

// Result carries the packed HMVP output: one RLWE ciphertext per row tile.
type Result struct {
	M      uint32 // total result rows
	N      uint32 // ring degree (slot stride computation)
	Packed []*rlwe.Ciphertext
}

// EncodeResult serializes a result.
func EncodeResult(r *ring.Ring, res Result) []byte {
	b := appendU32(nil, res.M)
	b = appendU32(b, res.N)
	b = appendU32(b, uint32(len(res.Packed)))
	for _, ct := range res.Packed {
		b = appendBlob(b, codec.EncodeCiphertext(r, ct))
	}
	return b
}

// DecodeResult parses a result.
func DecodeResult(r *ring.Ring, payload []byte) (Result, error) {
	d := NewReader(payload)
	res := Result{M: d.U32(), N: d.U32()}
	count := d.U32()
	if d.Err() == nil && count > MaxVectorChunks {
		return Result{}, fmt.Errorf("wire: %d result tiles exceeds limit %d", count, MaxVectorChunks)
	}
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		blob := d.Blob()
		if d.Err() != nil {
			break
		}
		ct, err := codec.DecodeCiphertext(r, blob)
		if err != nil {
			return Result{}, fmt.Errorf("wire: result tile %d: %w", i, err)
		}
		res.Packed = append(res.Packed, ct)
	}
	if err := d.Done(); err != nil {
		return Result{}, err
	}
	return res, nil
}
