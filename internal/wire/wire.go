// Package wire is the serving-tier protocol for cham: a versioned,
// deterministic, length-prefixed binary framing over which a client ships
// key material and encrypted vectors to a chamserve instance and receives
// packed HMVP results back (the Delphi-style deployment shape §III-C's
// host/card split implies at datacenter scale).
//
// A connection carries a sequence of frames, in both directions and for
// every message type one layout:
//
//	magic(4) version(1) type(1) seq(2) length(4) traceID(16) spanID(8) flags(1) payload...
//
// All integers are little-endian; length counts the payload alone. seq is
// an opaque client-chosen value the server echoes on the response, so a
// client can detect desynchronised streams. The 25-byte trace block is the
// request's trace context (DESIGN.md §9), all zero when it is untraced; a
// reply carries a zero block, since spans travel out of band through each
// node's ring. There is no negotiation: a peer of another revision is
// refused on its first 12 bytes.
//
// Message bodies carry crypto objects in one encoding (crypto.go): a
// ciphertext is a level count, a domain flag and its limbs, N being fixed
// by the Hello handshake; a switching key is its digit pairs. There is one
// compute request, Apply — every row tile or a listed subset — answered
// by one Result. SHA-256 over canonical encodings names key sets and
// registered matrices.
//
// Every decoder is strict and bounds-checked: malformed, truncated, or
// oversized input yields an error, never a panic, and never an allocation
// larger than the input that claimed it (FuzzWireDecode enforces this).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// FrameMagic identifies a cham serving frame ("CHWV" when read as
// little-endian bytes).
const FrameMagic uint32 = 0x56574843

// FrameVersion is the protocol revision: frames carry a trace block, and
// compute is one Apply (every tile or a listed subset) answered by one
// Result, their ciphertexts in this package's own encoding. ReadFrame
// refuses a frame of any other revision, so a peer of another build is
// turned away at its first frame and its connection closes.
const FrameVersion = 4

// framePrefixLen is magic(4)+version(1)+type(1)+seq(2)+length(4): the part
// of the header every revision shares.
const framePrefixLen = 12

// TraceHeaderLen is traceID(16) + spanID(8) + flags(1).
const TraceHeaderLen = 25

// FrameHeaderLen is every byte of a frame but its payload.
const FrameHeaderLen = framePrefixLen + TraceHeaderLen

// TraceFlagSampled marks a request whose spans are being recorded; no
// other flag bit is defined, and a frame that sets one is refused.
const TraceFlagSampled = 0x01

// DefaultMaxFrame bounds an accepted frame payload (256 MiB covers the
// largest key set at production parameters with wide margin).
const DefaultMaxFrame uint32 = 1 << 28

// frameAllocStep bounds what ReadFrame allocates for a payload before its
// bytes arrive: a length is only a claim. Every Apply and Result frame of
// the benchmark workloads fits, so those keep one allocation.
const frameAllocStep = 1 << 20

// TraceHeader is the trace block of one frame: the propagated trace
// context of a request. The zero value means untraced.
type TraceHeader struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   uint8
}

// MsgType discriminates frame payloads.
type MsgType uint8

// Message types. Each request type has one success response type; any
// request may instead be answered by MsgError. Numbers are part of the
// wire contract — append, never renumber; 12–15 are retired.
const (
	MsgHello          MsgType = 1 // client → server: parameter handshake
	MsgHelloOK        MsgType = 2 // server → client: parameter echo
	MsgSetupKeys      MsgType = 3 // client → server: packing (automorphism) keys
	MsgSetupKeysOK    MsgType = 4 // server → client: installed key-set hash
	MsgRegisterMatrix MsgType = 5 // client → server: cleartext matrix
	MsgMatrixHandle   MsgType = 6 // server → client: content-hash handle
	MsgApply          MsgType = 7 // client → server: HMVP job over every tile or a listed subset
	MsgResult         MsgType = 8 // server → client: packed ciphertexts, tile-labelled for a subset
	MsgError          MsgType = 9 // server → client: typed failure
	MsgPing           MsgType = 10
	MsgPong           MsgType = 11
)

// String names the type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgHelloOK:
		return "HelloOK"
	case MsgSetupKeys:
		return "SetupKeys"
	case MsgSetupKeysOK:
		return "SetupKeysOK"
	case MsgRegisterMatrix:
		return "RegisterMatrix"
	case MsgMatrixHandle:
		return "MatrixHandle"
	case MsgApply:
		return "Apply"
	case MsgResult:
		return "Result"
	case MsgError:
		return "Error"
	case MsgPing:
		return "Ping"
	case MsgPong:
		return "Pong"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// AppendFrame appends one framed message carrying trace block th to dst
// and returns the extended slice, growing dst at most once.
func AppendFrame(dst []byte, t MsgType, seq uint16, th TraceHeader, payload []byte) []byte {
	dst = slices.Grow(dst, FrameHeaderLen+len(payload))
	dst = appendU32(dst, FrameMagic)
	dst = append(dst, FrameVersion, byte(t))
	dst = appendU16(dst, seq)
	dst = appendU32(dst, uint32(len(payload)))
	dst = append(dst, th.TraceID[:]...)
	dst = append(dst, th.SpanID[:]...)
	dst = append(dst, th.Flags)
	return append(dst, payload...)
}

// WriteFrame writes one framed message.
func WriteFrame(w io.Writer, t MsgType, seq uint16, th TraceHeader, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, t, seq, th, payload))
	return err
}

// ReadFrame reads and validates one frame, rejecting payloads above max
// (0 means DefaultMaxFrame) before allocating anything for them, and
// allocating for the rest no faster than its bytes arrive.
func ReadFrame(r io.Reader, max uint32) (MsgType, uint16, TraceHeader, []byte, error) {
	if max == 0 {
		max = DefaultMaxFrame
	}
	// The shared prefix is checked before the trace block is read, so a
	// peer of another revision is refused at once, even a revision-1 one
	// whose header ends there.
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:framePrefixLen]); err != nil {
		return 0, 0, TraceHeader{}, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != FrameMagic {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: bad frame magic")
	}
	if hdr[4] != FrameVersion {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: unsupported protocol version %d", hdr[4])
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > max {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	if _, err := io.ReadFull(r, hdr[framePrefixLen:]); err != nil {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: truncated trace block: %w", err)
	}
	var th TraceHeader
	copy(th.TraceID[:], hdr[12:28])
	copy(th.SpanID[:], hdr[28:36])
	th.Flags = hdr[36]
	if th.Flags&^TraceFlagSampled != 0 {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: unknown trace flags %#x", th.Flags)
	}
	payload := make([]byte, min(n, frameAllocStep))
	for off := 0; ; {
		k, err := io.ReadFull(r, payload[off:])
		if err != nil {
			return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: truncated frame body: %w", err)
		}
		if off += k; off == int(n) {
			return MsgType(hdr[5]), binary.LittleEndian.Uint16(hdr[6:]), th, payload, nil
		}
		payload = append(payload, make([]byte, min(int(n)-off, off))...) // at most doubles
	}
}

// --- payload primitives ---

// Reader is an error-sticky, bounds-checked cursor over a payload. Every
// accessor returns the zero value once an error has occurred, so decoders
// read linearly and check Err (or Done) once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

func (d *Reader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// take consumes n bytes or sets the truncation error.
func (d *Reader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("truncated payload (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Reader) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Reader) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Reader) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Reader) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Hash reads a 32-byte content hash.
func (d *Reader) Hash() (h [32]byte) {
	copy(h[:], d.take(32))
	return h
}

// Blob reads a u32-length-prefixed byte string. The length is validated
// against the remaining input before any allocation, so a lying prefix
// cannot trigger a huge make.
func (d *Reader) Blob() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int64(n) > int64(len(d.buf)-d.off) {
		d.fail("blob of %d bytes exceeds remaining %d", n, len(d.buf)-d.off)
		return nil
	}
	return d.take(int(n))
}

// Err reports the first decoding error.
func (d *Reader) Err() error { return d.err }

// Done returns the first decoding error, or an error if input remains
// unconsumed — strict decoders reject padded frames.
func (d *Reader) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.buf)-d.off)
	}
	return nil
}

// appendU16/32/64 are the builder-side primitives.
func appendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// appendBlob writes a u32-length-prefixed byte string.
func appendBlob(dst []byte, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}
