// Package codec defines the wire format the CHAM runtime/driver uses to
// move polynomials, ciphertexts and switching keys between host memory
// and the accelerator's DDR (§III-C). The format is versioned and
// self-describing:
//
//	magic(4) version(1) kind(1) flags(1) levels(1) logN(1) payload...
//
// Payload words are little-endian uint64 residues, one row per limb.
// Decoding validates structure and residue ranges against the parameter
// set, so a corrupted DMA buffer is rejected rather than decrypted.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"cham/internal/ring"
	"cham/internal/rlwe"
)

// Magic identifies CHAM wire objects ("CHAM" in ASCII).
const Magic = 0x4348414D

// Version is the current format revision.
const Version = 1

// Object kinds.
const (
	KindPoly       byte = 1
	KindCiphertext byte = 2
	KindSwitchKey  byte = 3
)

// flag bits
const flagNTT byte = 1

const headerLen = 4 + 1 + 1 + 1 + 1 + 1

func putHeader(buf []byte, kind, flags byte, levels, logN int) {
	binary.LittleEndian.PutUint32(buf, Magic)
	buf[4] = Version
	buf[5] = kind
	buf[6] = flags
	buf[7] = byte(levels)
	buf[8] = byte(logN)
}

func parseHeader(buf []byte, wantKind byte) (flags byte, levels, n int, err error) {
	if len(buf) < headerLen {
		return 0, 0, 0, fmt.Errorf("codec: truncated header")
	}
	if binary.LittleEndian.Uint32(buf) != Magic {
		return 0, 0, 0, fmt.Errorf("codec: bad magic")
	}
	if buf[4] != Version {
		return 0, 0, 0, fmt.Errorf("codec: unsupported version %d", buf[4])
	}
	if buf[5] != wantKind {
		return 0, 0, 0, fmt.Errorf("codec: kind %d, want %d", buf[5], wantKind)
	}
	logN := int(buf[8])
	if logN > 20 {
		return 0, 0, 0, fmt.Errorf("codec: implausible logN %d", logN)
	}
	return buf[6], int(buf[7]), 1 << logN, nil
}

// polyBytes is the encoded size of one polynomial.
func polyBytes(levels, n int) int { return headerLen + 8*levels*n }

// EncodePoly serializes a polynomial.
func EncodePoly(r *ring.Ring, p *ring.Poly) []byte {
	levels := p.Levels()
	buf := make([]byte, polyBytes(levels, r.N))
	flags := byte(0)
	if p.IsNTT {
		flags |= flagNTT
	}
	putHeader(buf, KindPoly, flags, levels, bits.Len(uint(r.N))-1)
	off := headerLen
	for l := 0; l < levels; l++ {
		for _, c := range p.Coeffs[l] {
			binary.LittleEndian.PutUint64(buf[off:], c)
			off += 8
		}
	}
	return buf
}

// DecodePoly parses a polynomial and validates it against the ring.
func DecodePoly(r *ring.Ring, buf []byte) (*ring.Poly, error) {
	flags, levels, n, err := parseHeader(buf, KindPoly)
	if err != nil {
		return nil, err
	}
	if n != r.N {
		return nil, fmt.Errorf("codec: degree %d, ring has %d", n, r.N)
	}
	if levels < 1 || levels > r.Levels() {
		return nil, fmt.Errorf("codec: %d limbs out of range", levels)
	}
	if want := polyBytes(levels, n); len(buf) != want {
		return nil, fmt.Errorf("codec: %d bytes, want %d", len(buf), want)
	}
	p := r.NewPoly(levels)
	p.IsNTT = flags&flagNTT != 0
	off := headerLen
	for l := 0; l < levels; l++ {
		q := r.Moduli[l].Q
		for i := 0; i < n; i++ {
			c := binary.LittleEndian.Uint64(buf[off:])
			if c >= q {
				return nil, fmt.Errorf("codec: residue %d out of range for limb %d", c, l)
			}
			p.Coeffs[l][i] = c
			off += 8
		}
	}
	return p, nil
}

// EncodeCiphertext serializes an RLWE pair as two framed polynomials
// under a ciphertext header.
func EncodeCiphertext(r *ring.Ring, ct *rlwe.Ciphertext) []byte {
	b := EncodePoly(r, ct.B)
	a := EncodePoly(r, ct.A)
	buf := make([]byte, headerLen, headerLen+len(b)+len(a))
	putHeader(buf, KindCiphertext, 0, ct.Levels(), bits.Len(uint(r.N))-1)
	buf = append(buf, b...)
	buf = append(buf, a...)
	return buf
}

// DecodeCiphertext parses an RLWE pair.
func DecodeCiphertext(r *ring.Ring, buf []byte) (*rlwe.Ciphertext, error) {
	_, levels, n, err := parseHeader(buf, KindCiphertext)
	if err != nil {
		return nil, err
	}
	if n != r.N {
		return nil, fmt.Errorf("codec: degree mismatch")
	}
	part := polyBytes(levels, n)
	if len(buf) != headerLen+2*part {
		return nil, fmt.Errorf("codec: ciphertext length %d, want %d", len(buf), headerLen+2*part)
	}
	b, err := DecodePoly(r, buf[headerLen:headerLen+part])
	if err != nil {
		return nil, fmt.Errorf("codec: b part: %w", err)
	}
	a, err := DecodePoly(r, buf[headerLen+part:])
	if err != nil {
		return nil, fmt.Errorf("codec: a part: %w", err)
	}
	if b.IsNTT != a.IsNTT || b.Levels() != a.Levels() {
		return nil, fmt.Errorf("codec: inconsistent ciphertext halves")
	}
	return &rlwe.Ciphertext{B: b, A: a}, nil
}

// EncodeSwitchingKey serializes the dnum digit pairs of a switching key.
func EncodeSwitchingKey(r *ring.Ring, k *rlwe.SwitchingKey) []byte {
	buf := make([]byte, headerLen)
	putHeader(buf, KindSwitchKey, byte(len(k.Bs)), r.Levels(), bits.Len(uint(r.N))-1)
	for j := range k.Bs {
		buf = append(buf, EncodePoly(r, k.Bs[j])...)
		buf = append(buf, EncodePoly(r, k.As[j])...)
	}
	return buf
}

// DecodeSwitchingKey parses a switching key (digit count rides in flags).
func DecodeSwitchingKey(r *ring.Ring, buf []byte) (*rlwe.SwitchingKey, error) {
	dnum, levels, n, err := parseHeader(buf, KindSwitchKey)
	if err != nil {
		return nil, err
	}
	if n != r.N || levels != r.Levels() {
		return nil, fmt.Errorf("codec: key ring mismatch")
	}
	if dnum == 0 {
		return nil, fmt.Errorf("codec: key with no digits")
	}
	part := polyBytes(levels, n)
	if len(buf) != headerLen+2*int(dnum)*part {
		return nil, fmt.Errorf("codec: key length %d, want %d", len(buf), headerLen+2*int(dnum)*part)
	}
	k := &rlwe.SwitchingKey{}
	off := headerLen
	for j := 0; j < int(dnum); j++ {
		b, err := DecodePoly(r, buf[off:off+part])
		if err != nil {
			return nil, fmt.Errorf("codec: digit %d B: %w", j, err)
		}
		off += part
		a, err := DecodePoly(r, buf[off:off+part])
		if err != nil {
			return nil, fmt.Errorf("codec: digit %d A: %w", j, err)
		}
		off += part
		k.Bs = append(k.Bs, b)
		k.As = append(k.As, a)
	}
	// Rebuild the Shoup companion tables, which are derived data and not
	// part of the wire format.
	k.Precompute(r)
	return k, nil
}
