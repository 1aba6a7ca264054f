package wire

// Crypto objects inside message bodies. A ciphertext is
//
//	levels(1) ntt(1) B limbs... A limbs...
//
// with every limb N little-endian uint64 residues, N being the ring degree
// both ends agreed on in the Hello handshake. A switching key is its digit
// count (1 byte) followed by its digit pairs (B_j, A_j), each encoded as a
// full-level ciphertext. The encodings are canonical, so hashes over them
// (KeyHash) name content. Decoding validates against the ring — a level
// count in [1, L], every residue below its limb's modulus — so a corrupt
// or hostile buffer is rejected, never decrypted, and nothing is allocated
// for a ciphertext before its bytes are known to be there.

import (
	"encoding/binary"

	"cham/internal/ring"
	"cham/internal/rlwe"
)

// ciphertextLen is the encoded size of a ciphertext of the given level count.
func ciphertextLen(r *ring.Ring, levels int) int { return 2 + 16*levels*r.N }

// ciphertextsLen is the encoded size of a counted ciphertext list.
func ciphertextsLen(r *ring.Ring, cts []*rlwe.Ciphertext) int {
	n := 4
	for _, ct := range cts {
		n += ciphertextLen(r, ct.Levels())
	}
	return n
}

// switchingKeyLen is the encoded size of a switching key.
func switchingKeyLen(r *ring.Ring, k *rlwe.SwitchingKey) int {
	return 1 + len(k.Bs)*ciphertextLen(r, r.Levels())
}

// appendCiphertext appends ct's encoding; callers size dst beforehand, so
// the words land in place.
func appendCiphertext(dst []byte, ct *rlwe.Ciphertext) []byte {
	ntt := byte(0)
	if ct.IsNTT() {
		ntt = 1
	}
	dst = append(dst, byte(ct.Levels()), ntt)
	for _, p := range [2]*ring.Poly{ct.B, ct.A} {
		for _, row := range p.Coeffs {
			for _, c := range row {
				dst = binary.LittleEndian.AppendUint64(dst, c)
			}
		}
	}
	return dst
}

// appendCiphertexts appends a u32 count and the ciphertexts.
func appendCiphertexts(dst []byte, cts []*rlwe.Ciphertext) []byte {
	dst = appendU32(dst, uint32(len(cts)))
	for _, ct := range cts {
		dst = appendCiphertext(dst, ct)
	}
	return dst
}

// appendSwitchingKey appends k's digit count and digit pairs.
func appendSwitchingKey(dst []byte, k *rlwe.SwitchingKey) []byte {
	dst = append(dst, byte(len(k.Bs)))
	for j := range k.Bs {
		dst = appendCiphertext(dst, &rlwe.Ciphertext{B: k.Bs[j], A: k.As[j]})
	}
	return dst
}

// readCiphertext reads one ciphertext, validated against r; on failure it
// sets d's error and returns nil.
func (d *Reader) readCiphertext(r *ring.Ring) *rlwe.Ciphertext {
	levels, ntt := int(d.U8()), d.U8()
	switch {
	case d.err != nil:
		return nil
	case levels < 1 || levels > r.Levels():
		d.fail("ciphertext of %d levels, the ring has 1 to %d", levels, r.Levels())
		return nil
	case ntt > 1:
		d.fail("ciphertext domain flag %d not 0/1", ntt)
		return nil
	}
	body := d.take(ciphertextLen(r, levels) - 2)
	if d.err != nil {
		return nil
	}
	ct := &rlwe.Ciphertext{B: r.NewPoly(levels), A: r.NewPoly(levels)}
	for _, p := range [2]*ring.Poly{ct.B, ct.A} {
		p.IsNTT = ntt == 1
		for l, row := range p.Coeffs {
			q := r.Moduli[l].Q
			for i := range row {
				c := binary.LittleEndian.Uint64(body)
				if c >= q {
					d.fail("residue %d out of range for limb %d", c, l)
					return nil
				}
				row[i], body = c, body[8:]
			}
		}
	}
	return ct
}

// readCiphertexts reads a u32 count, bounded by MaxVectorChunks, and that
// many ciphertexts.
func (d *Reader) readCiphertexts(r *ring.Ring) []*rlwe.Ciphertext {
	count := d.U32()
	if d.err == nil && count > MaxVectorChunks {
		d.fail("%d ciphertexts exceeds limit %d", count, MaxVectorChunks)
	}
	var cts []*rlwe.Ciphertext
	for i := uint32(0); i < count && d.err == nil; i++ {
		cts = append(cts, d.readCiphertext(r))
	}
	if d.err != nil {
		return nil
	}
	return cts
}

// readSwitchingKey reads one switching key, every digit pair at the ring's
// full level, and rebuilds its Montgomery images, which are derived data
// and not part of the encoding.
func (d *Reader) readSwitchingKey(r *ring.Ring) *rlwe.SwitchingKey {
	digits := int(d.U8())
	if d.err == nil && digits == 0 {
		d.fail("switching key with no digits")
	}
	k := &rlwe.SwitchingKey{}
	for j := 0; j < digits && d.err == nil; j++ {
		ct := d.readCiphertext(r)
		if ct != nil && ct.Levels() != r.Levels() {
			d.fail("switching key digit %d has %d levels, want %d", j, ct.Levels(), r.Levels())
		}
		if d.err == nil {
			k.Bs, k.As = append(k.Bs, ct.B), append(k.As, ct.A)
		}
	}
	if d.err != nil {
		return nil
	}
	k.Precompute(r)
	return k
}
