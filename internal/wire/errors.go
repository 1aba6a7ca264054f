package wire

// Typed protocol failures. The server answers any request with MsgError
// carrying a stable numeric code plus human-readable detail; the client
// surfaces it as *wire.Error so callers can branch with errors.As /
// errors.Is and the retry layer can distinguish transient overload from
// permanent misuse.

import (
	"errors"
	"fmt"
)

// Error codes. Codes are part of the wire contract — append, never renumber.
const (
	CodeBadRequest      uint16 = 1  // malformed or semantically invalid request
	CodeOverloaded      uint16 = 2  // admission queue full; retry with backoff
	CodeUnknownMatrix   uint16 = 3  // Apply names an unregistered matrix
	CodeKeysRequired    uint16 = 4  // request needs SetupKeys first
	CodeKeysConflict    uint16 = 5  // SetupKeys disagrees with the installed set
	CodeDeadline        uint16 = 6  // request deadline expired in queue or service
	CodeDraining        uint16 = 7  // server is shutting down; retry elsewhere
	CodeParamsMismatch  uint16 = 8  // Hello parameters disagree with the server's
	CodeInternal        uint16 = 9  // server-side failure
	CodeDegraded        uint16 = 10 // cluster quorum unreachable; partial shard coverage
	CodeVersionMismatch uint16 = 11 // frame of another protocol revision; the door hangs up
)

// codeNames maps codes to stable identifiers (also used as metric labels).
var codeNames = map[uint16]string{
	CodeBadRequest:      "bad_request",
	CodeOverloaded:      "overloaded",
	CodeUnknownMatrix:   "unknown_matrix",
	CodeKeysRequired:    "keys_required",
	CodeKeysConflict:    "keys_conflict",
	CodeDeadline:        "deadline",
	CodeDraining:        "draining",
	CodeParamsMismatch:  "params_mismatch",
	CodeInternal:        "internal",
	CodeDegraded:        "degraded",
	CodeVersionMismatch: "version_mismatch",
}

// CodeName returns the stable identifier for a code.
func CodeName(code uint16) string {
	if n, ok := codeNames[code]; ok {
		return n
	}
	return fmt.Sprintf("code_%d", code)
}

// Error is a typed protocol failure.
type Error struct {
	Code   uint16
	Detail string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("cham server: %s: %s", CodeName(e.Code), e.Detail)
}

// Retryable reports whether a fresh attempt may succeed: overload,
// drain, and cluster degradation are transient serving states, everything
// else reflects the request itself.
func (e *Error) Retryable() bool {
	return e.Code == CodeOverloaded || e.Code == CodeDraining || e.Code == CodeDegraded
}

// Is matches two wire errors by code, so errors.Is(err, &wire.Error{Code:
// wire.CodeOverloaded}) works regardless of detail text.
func (e *Error) Is(target error) bool {
	var t *Error
	if !errors.As(target, &t) {
		return false
	}
	return e.Code == t.Code
}

// ErrOverloaded is the sentinel for admission-control rejection.
var ErrOverloaded = &Error{Code: CodeOverloaded, Detail: "admission queue full"}

// Errf builds a typed error with formatted detail.
func Errf(code uint16, format string, args ...any) *Error {
	return &Error{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// Encode serializes the error message.
func (e *Error) Encode() []byte {
	detail := e.Detail
	if len(detail) > MaxErrorDetail {
		detail = detail[:MaxErrorDetail]
	}
	b := appendU16(nil, e.Code)
	return appendBlob(b, []byte(detail))
}

// DecodeError parses an error message.
func DecodeError(payload []byte) (*Error, error) {
	d := NewReader(payload)
	code := d.U16()
	detail := d.Blob()
	if err := d.Done(); err != nil {
		return nil, err
	}
	if len(detail) > MaxErrorDetail {
		return nil, fmt.Errorf("wire: error detail of %d bytes exceeds limit", len(detail))
	}
	return &Error{Code: code, Detail: string(detail)}, nil
}

// VersionError is a frame of another protocol revision, refused by
// ReadFrame at its prefix. A door answers it with one CodeVersionMismatch
// error echoing Seq, then closes the connection; a client does not retry
// it, since every attempt meets the same peer.
type VersionError struct {
	Version uint8  // the frame's revision
	Seq     uint16 // its sequence number, at the offset every revision shares
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: frame of protocol revision %d, this end speaks %d", e.Version, FrameVersion)
}

// FrameSizeError is a frame payload above DefaultMaxFrame: refused by
// ReadFrame at its header, and by the client before it dials, since no
// door would take it.
type FrameSizeError struct{ Size uint64 }

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit %d", e.Size, DefaultMaxFrame)
}
