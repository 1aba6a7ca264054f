package wire

// Distributed-tracing extension of the frame protocol (DESIGN.md §9).
//
// A traced frame is protocol revision 2: the same 12-byte header with
// version=2, whose payload is prefixed by a fixed 25-byte trace header
// (traceID 16 + spanID 8 + flags 1). Revision 1 peers reject version 2
// at the frame layer, so a client may only send traced frames after a
// successful capability probe: it sends MsgTraceHello (a new message
// type inside an ordinary v1 frame); a trace-aware server answers
// MsgTraceHelloOK, while an older server answers its generic
// unknown-message CodeBadRequest error and keeps the connection alive —
// the client falls back to plain v1 frames and the request still
// serves. Responses always travel as v1: span data flows out-of-band
// through each node's ring buffer, merged by TraceID in cmd/chamtrace,
// so only the request direction needs the header.
//
// Unsampled requests are sent as plain v1 frames even on a negotiated
// connection — the whole extension costs one branch per hop when idle.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FrameVersionTraced is the protocol revision whose payloads carry a
// leading trace header.
const FrameVersionTraced = 2

// TraceHeaderLen is traceID(16) + spanID(8) + flags(1).
const TraceHeaderLen = 25

// TraceFlagSampled marks a request whose spans are being recorded.
const TraceFlagSampled = 0x01

// TraceHeader is the propagated trace context of one request frame.
// The zero value means "untraced".
type TraceHeader struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   uint8
}

// IsZero reports whether the header is absent/untraced.
func (h TraceHeader) IsZero() bool { return h == TraceHeader{} }

// AppendTraceHeader appends the 25-byte trace block.
func AppendTraceHeader(dst []byte, h TraceHeader) []byte {
	dst = append(dst, h.TraceID[:]...)
	dst = append(dst, h.SpanID[:]...)
	return append(dst, h.Flags)
}

// DecodeTraceHeader splits a version-2 payload into its trace header
// and the message body that follows.
func DecodeTraceHeader(payload []byte) (TraceHeader, []byte, error) {
	if len(payload) < TraceHeaderLen {
		return TraceHeader{}, nil, fmt.Errorf("wire: traced frame of %d bytes shorter than trace header", len(payload))
	}
	var h TraceHeader
	copy(h.TraceID[:], payload[0:16])
	copy(h.SpanID[:], payload[16:24])
	h.Flags = payload[24]
	if h.Flags&^TraceFlagSampled != 0 {
		return TraceHeader{}, nil, fmt.Errorf("wire: unknown trace flags %#x", h.Flags)
	}
	return h, payload[TraceHeaderLen:], nil
}

// AppendFrameTraced appends one version-2 framed message carrying th.
func AppendFrameTraced(dst []byte, t MsgType, seq uint16, th TraceHeader, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], FrameMagic)
	hdr[4] = FrameVersionTraced
	hdr[5] = byte(t)
	binary.LittleEndian.PutUint16(hdr[6:], seq)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(TraceHeaderLen+len(payload)))
	dst = append(dst, hdr[:]...)
	dst = AppendTraceHeader(dst, th)
	return append(dst, payload...)
}

// WriteFrameTraced writes one version-2 framed message.
func WriteFrameTraced(w io.Writer, t MsgType, seq uint16, th TraceHeader, payload []byte) error {
	buf := AppendFrameTraced(make([]byte, 0, frameHeaderLen+TraceHeaderLen+len(payload)), t, seq, th, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrameAny reads one frame accepting both protocol revisions: a
// version-1 frame yields a zero TraceHeader, a version-2 frame has its
// trace block split off the payload. Trace-aware read loops (server,
// gateway) use this in place of ReadFrame; ReadFrame itself stays
// strict v1, preserving the behaviour of pre-tracing peers.
func ReadFrameAny(r io.Reader, max uint32) (MsgType, uint16, TraceHeader, []byte, error) {
	if max == 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, TraceHeader{}, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != FrameMagic {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: bad frame magic")
	}
	version := hdr[4]
	if version != FrameVersion && version != FrameVersionTraced {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: unsupported protocol version %d", version)
	}
	t := MsgType(hdr[5])
	seq := binary.LittleEndian.Uint16(hdr[6:])
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > max {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, TraceHeader{}, nil, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	if version == FrameVersion {
		return t, seq, TraceHeader{}, payload, nil
	}
	th, body, err := DecodeTraceHeader(payload)
	if err != nil {
		return 0, 0, TraceHeader{}, nil, err
	}
	return t, seq, th, body, nil
}

// TraceHello is the capability probe: the highest frame revision the
// client can speak.
type TraceHello struct {
	MaxVersion uint8
}

// Encode serializes the probe.
func (h TraceHello) Encode() []byte { return []byte{h.MaxVersion} }

// DecodeTraceHello parses a TraceHello payload.
func DecodeTraceHello(payload []byte) (TraceHello, error) {
	d := NewReader(payload)
	h := TraceHello{MaxVersion: d.U8()}
	return h, d.Done()
}

// TraceHelloOK acknowledges the probe with the revision the server
// accepts for this connection.
type TraceHelloOK struct {
	Version uint8
}

// Encode serializes the acknowledgement.
func (h TraceHelloOK) Encode() []byte { return []byte{h.Version} }

// DecodeTraceHelloOK parses a TraceHelloOK payload.
func DecodeTraceHelloOK(payload []byte) (TraceHelloOK, error) {
	d := NewReader(payload)
	h := TraceHelloOK{Version: d.U8()}
	return h, d.Done()
}
