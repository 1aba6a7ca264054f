package wire

// Crypto objects inside message bodies. A ciphertext is
//
//	levels(1) ntt(1) B limbs... A limbs...
//
// with every limb N little-endian residues of ⌈bits(q_l)/8⌉ bytes each —
// 5 for every CHAM limb — N and the moduli being what both ends agreed
// on in the Hello handshake. A switching key is its digit count (1 byte)
// followed by its digit pairs (B_j, A_j), each encoded as a full-level
// ciphertext. The encodings are canonical, so hashes over them (KeyHash)
// name content. Decoding validates against the ring — a level count in
// [1, L], every residue below its limb's modulus — so a corrupt or
// hostile buffer is rejected, never decrypted, and nothing is allocated
// for a ciphertext before its bytes are known to be there.
//
// Words of any width travel through one codec, putWords and getWords: a
// limb row at its modulus' width, a registered matrix's entries at the
// width of its largest entry (messages.go).

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"cham/internal/ring"
	"cham/internal/rlwe"
)

// wordWidth is the fewest whole bytes that hold v: 1 to 8.
func wordWidth(v uint64) int { return max(1, (bits.Len64(v)+7)/8) }

// limbWidth is the byte width of limb l's residues: ⌈bits(q_l)/8⌉.
func limbWidth(r *ring.Ring, l int) int { return wordWidth(r.Moduli[l].Q - 1) }

// putWords writes src into dst at w bytes a word, little-endian; dst is
// exactly w·len(src) bytes and every word fits w bytes. At five bytes, the
// width of every CHAM limb, whole blocks of eight words go through
// putWords5; the rest through putWordsLoop.
func putWords(dst []byte, src []uint64, w int) {
	if w == 5 {
		n := len(src) &^ 7
		putWords5(dst[:5*n], src[:n])
		dst, src = dst[5*n:], src[n:]
	}
	putWordsLoop(dst, src, w)
}

// putWords5 is putWords at five bytes a word over whole blocks of eight
// words: each block's forty bytes are five 8-byte stores, every word's
// bits shifted into place — word k holds bits [40k, 40k+40) of the
// block.
func putWords5(dst []byte, src []uint64) {
	for len(src) >= 8 {
		s, d := src[:8:8], dst[:40:40]
		binary.LittleEndian.PutUint64(d[0:], s[0]|s[1]<<40)
		binary.LittleEndian.PutUint64(d[8:], s[1]>>24|s[2]<<16|s[3]<<56)
		binary.LittleEndian.PutUint64(d[16:], s[3]>>8|s[4]<<32)
		binary.LittleEndian.PutUint64(d[24:], s[4]>>32|s[5]<<8|s[6]<<48)
		binary.LittleEndian.PutUint64(d[32:], s[6]>>16|s[7]<<24)
		src, dst = src[8:], dst[40:]
	}
}

// putWordsLoop is putWords at any width: the words that have 8 bytes of
// dst ahead of them are stored whole, each store's high bytes overwritten
// by the next word, and the last few byte by byte.
func putWordsLoop(dst []byte, src []uint64, w int) {
	i := 0
	if len(dst) >= 8 {
		whole := src[:(len(dst)-8)/w+1]
		for ; i < len(whole); i++ {
			binary.LittleEndian.PutUint64(dst[i*w:i*w+8], whole[i])
		}
	}
	for ; i < len(src); i++ {
		for b, v := i*w, src[i]; b < (i+1)*w; b, v = b+1, v>>8 {
			dst[b] = byte(v)
		}
	}
}

// getWords reads w-byte little-endian words from src (exactly w·len(dst)
// bytes) into dst and returns the largest, so one comparison after the
// sweep checks them all against a bound.
func getWords(dst []uint64, src []byte, w int) (largest uint64) {
	i := 0
	if len(src) >= 8 {
		mask := ^uint64(0) >> (64 - 8*w)
		whole := dst[:(len(src)-8)/w+1]
		for ; i < len(whole); i++ {
			v := binary.LittleEndian.Uint64(src[i*w:i*w+8]) & mask
			whole[i], largest = v, max(largest, v)
		}
	}
	for ; i < len(dst); i++ {
		var v uint64
		for b := (i+1)*w - 1; b >= i*w; b-- {
			v = v<<8 | uint64(src[b])
		}
		dst[i], largest = v, max(largest, v)
	}
	return largest
}

// firstAtOrAbove returns the index of the first word of ws at or above
// bound; the error path of a getWords whose largest word was.
func firstAtOrAbove(ws []uint64, bound uint64) int {
	return slices.IndexFunc(ws, func(v uint64) bool { return v >= bound })
}

// ciphertextLen is the encoded size of a ciphertext of the given level
// count: 2 + 2·N·Σ width_l.
func ciphertextLen(r *ring.Ring, levels int) int {
	n := 2
	for l := range levels {
		n += 2 * r.N * limbWidth(r, l)
	}
	return n
}

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
func appendCiphertext(dst []byte, r *ring.Ring, ct *rlwe.Ciphertext) []byte {
	ntt := byte(0)
	if ct.IsNTT() {
		ntt = 1
	}
	dst = append(dst, byte(ct.Levels()), ntt)
	for _, p := range [2]*ring.Poly{ct.B, ct.A} {
		for l, row := range p.Coeffs {
			n, w := len(dst), limbWidth(r, l)
			dst = slices.Grow(dst, w*len(row))[:n+w*len(row)]
			putWords(dst[n:], row, w)
		}
	}
	return dst
}

// appendCiphertexts appends a u32 count and the ciphertexts.
func appendCiphertexts(dst []byte, r *ring.Ring, cts []*rlwe.Ciphertext) []byte {
	dst = appendU32(dst, uint32(len(cts)))
	for _, ct := range cts {
		dst = appendCiphertext(dst, r, ct)
	}
	return dst
}

// appendSwitchingKey appends k's digit count and digit pairs.
func appendSwitchingKey(dst []byte, r *ring.Ring, k *rlwe.SwitchingKey) []byte {
	dst = append(dst, byte(len(k.Bs)))
	for j := range k.Bs {
		dst = appendCiphertext(dst, r, &rlwe.Ciphertext{B: k.Bs[j], A: k.As[j]})
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
			q, w := r.Moduli[l].Q, limbWidth(r, l)
			if getWords(row, body[:w*len(row)], w) >= q {
				d.fail("residue %d out of range for limb %d", row[firstAtOrAbove(row, q)], l)
				return nil
			}
			body = body[w*len(row):]
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
