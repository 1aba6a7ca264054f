package wire

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/rlwe"
)

var wireFuzz struct {
	once sync.Once
	p    bfv.Params
	sk   *rlwe.SecretKey
	keys *lwe.PackingKeys
	err  error
}

func wireFuzzSetup() error {
	wireFuzz.once.Do(func() {
		p, err := bfv.NewChamParams(32)
		if err != nil {
			wireFuzz.err = err
			return
		}
		rng := rand.New(rand.NewSource(7))
		sk := p.KeyGen(rng)
		keys, err := lwe.GenPackingKeys(p, rng, sk, 8)
		if err != nil {
			wireFuzz.err = err
			return
		}
		wireFuzz.p, wireFuzz.sk, wireFuzz.keys = p, sk, keys
	})
	return wireFuzz.err
}

// Corruptions FuzzWireRoundTrip applies to what it encoded, each of which
// the decoder must refuse.
const (
	corruptNone      = iota
	corruptResidue   // one residue of the Apply's vector at q_l or above, at its 5 bytes
	corruptTruncated // the Apply's last coefficient one byte short
	corruptWidthZero // the matrix's width byte 0
	corruptWidthNine // the matrix's width byte 9
	corruptWidthWide // the matrix re-encoded one byte wider than its largest entry needs
	corruptions
)

// FuzzWireRoundTrip checks encode∘decode identity on fuzz-chosen protocol
// objects: matrices (entries below a fuzz-chosen bound, so every width
// from 1 to 3 bytes), apply requests, results and errors must survive a
// trip through their encodings bit for bit — and one fuzz-chosen
// corruption of those encodings must be refused.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(40), int64(1), uint16(3), uint8(corruptNone))
	f.Add(uint8(7), uint8(90), int64(-9), uint16(1), uint8(corruptNone))
	f.Add(uint8(1), uint8(1), int64(0), uint16(9), uint8(corruptNone))
	f.Add(uint8(3), uint8(33), int64(5), uint16(2), uint8(corruptResidue))
	f.Add(uint8(2), uint8(70), int64(6), uint16(4), uint8(corruptTruncated))
	f.Add(uint8(4), uint8(12), int64(7), uint16(5), uint8(corruptWidthZero))
	f.Add(uint8(5), uint8(64), int64(8), uint16(6), uint8(corruptWidthNine))
	f.Add(uint8(6), uint8(3), int64(9), uint16(7), uint8(corruptWidthWide))
	f.Fuzz(func(t *testing.T, rowsSel, colsSel uint8, seed int64, code uint16, corrupt uint8) {
		if err := wireFuzzSetup(); err != nil {
			t.Fatal(err)
		}
		p := wireFuzz.p
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + int(rowsSel)%8
		cols := 1 + int(colsSel)%(3*p.R.N)
		bound := min(p.T.Q, 1<<(8*(1+int(rowsSel/8)%3)))

		// Matrix: canonical encoding, stable ID, exact values back.
		A := make([][]uint64, rows)
		for i := range A {
			A[i] = make([]uint64, cols)
			for j := range A[i] {
				A[i][j] = rng.Uint64() % bound
			}
		}
		payload, err := EncodeRegisterMatrix(A)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRegisterMatrix(p.T.Q, payload)
		if err != nil {
			t.Fatal(err)
		}
		for i := range A {
			for j := range A[i] {
				if got[i][j] != A[i][j] {
					t.Fatalf("matrix entry (%d,%d) changed", i, j)
				}
			}
		}
		payload2, _ := EncodeRegisterMatrix(got)
		if !bytes.Equal(payload, payload2) {
			t.Fatal("matrix encoding not canonical")
		}
		if id, _ := MatrixID(A); id != sha256.Sum256(payload) {
			t.Fatal("MatrixID is not the hash of the matrix's encoding")
		}
		w := int(payload[matrixHeaderLen-1])
		switch corrupt % corruptions {
		case corruptWidthZero, corruptWidthNine:
			bad := slices.Clone(payload)
			bad[matrixHeaderLen-1] = map[uint8]byte{corruptWidthZero: 0, corruptWidthNine: 9}[corrupt%corruptions]
			if _, err := DecodeRegisterMatrix(p.T.Q, bad); err == nil {
				t.Fatalf("a matrix with width byte %d decoded", bad[matrixHeaderLen-1])
			}
		case corruptWidthWide:
			wide := appendMatrixHeader(nil, rows, cols, w+1)
			for _, row := range A {
				body := make([]byte, len(row)*(w+1))
				putWords(body, row, w+1)
				wide = append(wide, body...)
			}
			if _, err := DecodeRegisterMatrix(p.T.Q, wide); err == nil {
				t.Fatalf("a matrix that fits %d bytes decoded at %d", w, w+1)
			}
		}

		// Apply + Result with a real encrypted vector.
		v := make([]uint64, cols)
		for j := range v {
			v[j] = rng.Uint64() % p.T.Q
		}
		ctV := core.EncryptVector(p, rng, wireFuzz.sk, v)
		a := Apply{DeadlineMicros: uint64(seed)}
		a.Vector = ctV
		id, err := MatrixID(A)
		if err != nil {
			t.Fatal(err)
		}
		a.ID = id
		aBytes := EncodeApply(p.R, a)
		back, err := DecodeApply(p.R, aBytes)
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != a.ID || back.DeadlineMicros != a.DeadlineMicros || len(back.Vector) != len(ctV) {
			t.Fatal("apply header changed")
		}
		switch corrupt % corruptions {
		case corruptResidue:
			// A fuzz-chosen coefficient of the first chunk, raised to q_l or
			// above within its width.
			l := rng.Intn(p.R.Levels())
			lw := limbWidth(p.R, l)
			off := 32 + 8 + 4 + 4 + 2 // ID, deadline, empty tile list, count, levels and domain
			for k := range l {
				off += p.R.N * limbWidth(p.R, k)
			}
			off += rng.Intn(p.R.N) * lw
			q := p.R.Moduli[l].Q
			putWords(aBytes[off:off+lw], []uint64{q + rng.Uint64()%(1<<(8*lw)-q)}, lw)
			if _, err := DecodeApply(p.R, aBytes); err == nil {
				t.Fatalf("a residue at or above q_%d decoded", l)
			}
		case corruptTruncated:
			if _, err := DecodeApply(p.R, aBytes[:len(aBytes)-1]); err == nil {
				t.Fatal("an Apply short of its last coefficient's last byte decoded")
			}
		}
		for c := range ctV {
			if !sameCiphertext(back.Vector[c], ctV[c]) {
				t.Fatalf("apply chunk %d changed", c)
			}
		}
		res := Result{M: uint32(rows), N: uint32(p.R.N), Packed: []*rlwe.Ciphertext{
			p.EncryptZeroSym(rng, wireFuzz.sk, p.NormalLevels),
		}}
		backRes, err := DecodeResult(p.R, EncodeResult(p.R, res))
		if err != nil {
			t.Fatal(err)
		}
		if backRes.M != res.M || backRes.N != res.N || !sameCiphertext(backRes.Packed[0], res.Packed[0]) {
			t.Fatal("result changed")
		}

		// Errors round-trip for any code.
		e := Errf(code, "seed %d", seed)
		backErr, err := DecodeError(e.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if backErr.Code != e.Code || backErr.Detail != e.Detail {
			t.Fatal("error changed")
		}
	})
}

// FuzzWireClusterDecode hammers what the cluster tier sends: encode∘decode
// identity on fuzz-shaped tile-listed Applies and labelled Results, then
// those decoders over mutations of the bytes — truncation, bit flips, and
// garbage must yield errors, never panics.
func FuzzWireClusterDecode(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0), []byte{})
	f.Add(int64(7), uint8(1), uint8(0), uint8(1), []byte{0xff, 0x00})
	f.Add(int64(-3), uint8(9), uint8(5), uint8(200), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, seed int64, tileSel, _, mutate uint8, raw []byte) {
		if err := wireFuzzSetup(); err != nil {
			t.Fatal(err)
		}
		p := wireFuzz.p
		rng := rand.New(rand.NewSource(seed))

		// Round trip a well-formed tile-listed Apply.
		nTiles := 1 + int(tileSel)%6
		tiles := make([]uint32, nTiles)
		next := uint32(rng.Intn(3))
		for i := range tiles {
			tiles[i] = next
			next += 1 + uint32(rng.Intn(4))
		}
		v := make([]uint64, 1+rng.Intn(2*p.R.N))
		for j := range v {
			v[j] = rng.Uint64() % p.T.Q
		}
		ctV := core.EncryptVector(p, rng, wireFuzz.sk, v)
		ta := Apply{DeadlineMicros: uint64(seed), Tiles: tiles, Vector: ctV}
		rng.Read(ta.ID[:])
		taBytes := EncodeApply(p.R, ta)
		back, err := DecodeApply(p.R, taBytes)
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != ta.ID || !slices.Equal(back.Tiles, tiles) || len(back.Vector) != len(ctV) {
			t.Fatal("tile-listed apply header changed")
		}

		// Round trip a labelled Result with real ciphertexts, over a matrix
		// whose last tile is the last label.
		tr := Result{M: (tiles[nTiles-1] + 1) * uint32(p.R.N), N: uint32(p.R.N), Tiles: tiles}
		for range tiles {
			tr.Packed = append(tr.Packed, p.EncryptZeroSym(rng, wireFuzz.sk, p.NormalLevels))
		}
		trBytes := EncodeResult(p.R, tr)
		backTR, err := DecodeResult(p.R, trBytes)
		if err != nil {
			t.Fatal(err)
		}
		if backTR.M != tr.M || backTR.N != tr.N || !slices.Equal(backTR.Tiles, tiles) || len(backTR.Packed) != len(tr.Packed) {
			t.Fatal("labelled result header changed")
		}
		for i := range tr.Packed {
			if !sameCiphertext(backTR.Packed[i], tr.Packed[i]) {
				t.Fatalf("result tile %d changed", i)
			}
		}
		// Every cluster decoder must be total over mutated encodings.
		for _, data := range [][]byte{taBytes, trBytes, raw} {
			if len(data) > 0 && mutate > 0 {
				data = append([]byte(nil), data...)
				for k := 0; k < int(mutate)%8+1; k++ {
					data[rng.Intn(len(data))] ^= byte(1 << (rng.Intn(8)))
				}
				if cut := rng.Intn(len(data) + 1); seed%3 == 0 {
					data = data[:cut]
				}
			}
			_, _ = DecodeApply(p.R, data)
			_, _ = DecodeResult(p.R, data)
		}
	})
}

// FuzzWireTraceHeaderDecode covers the one frame reader: round-trip
// identity of header, trace block and body, totality over arbitrary bytes
// (what it accepts re-encodes to the bytes it read), and refusal of
// headers of revisions 1 to 4, as a VersionError, and of unknown trace
// flags.
func FuzzWireTraceHeaderDecode(f *testing.F) {
	th := TraceHeader{Flags: TraceFlagSampled}
	for i := range th.TraceID {
		th.TraceID[i] = byte(i + 1)
	}
	for i := range th.SpanID {
		th.SpanID[i] = byte(0xa0 + i)
	}
	f.Add(AppendFrame(nil, MsgApply, 7, th, []byte{1, 2, 3}), []byte{9, 9})
	f.Add(AppendFrame(nil, MsgPing, 1, TraceHeader{}, nil), []byte{})
	f.Add(AppendFrame(nil, MsgPing, 2, TraceHeader{Flags: 0x80}, nil), []byte{0xff})
	f.Add([]byte{0x43, 0x48, 0x57, 0x56, 1, 10, 0, 0, 0, 0, 0, 0}, []byte{1}) // a revision-1 Ping
	f.Fuzz(func(t *testing.T, data, body []byte) {
		// Totality over arbitrary bytes; whatever is accepted is canonical.
		if mt, seq, h, p, err := ReadFrame(bytes.NewReader(data)); err == nil {
			if re := AppendFrame(nil, mt, seq, h, p); !bytes.Equal(re, data[:len(re)]) {
				t.Fatalf("accepted frame re-encodes to % x, read from % x", re, data[:len(re)])
			}
		}

		// Round trip: header, trace block and body come back exactly.
		var hdr TraceHeader
		copy(hdr.TraceID[:], data)
		copy(hdr.SpanID[:], body)
		hdr.Flags = byte(len(data)) & TraceFlagSampled
		frame := AppendFrame(nil, MsgType(len(data)), uint16(len(body)), hdr, body)
		if len(frame) != FrameHeaderLen+len(body) {
			t.Fatalf("frame of a %d-byte body is %d bytes", len(body), len(frame))
		}
		gt, gs, gh, gp, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if gt != MsgType(len(data)) || gs != uint16(len(body)) || gh != hdr || !bytes.Equal(gp, body) {
			t.Fatal("frame changed in flight")
		}

		// An older revision, or a flag bit beyond sampled, is refused.
		for _, v := range []byte{1, 2, 3, 4} {
			old := append([]byte(nil), frame...)
			old[4] = v
			var ve *VersionError
			if _, _, _, _, err := ReadFrame(bytes.NewReader(old)); !errors.As(err, &ve) || ve.Seq != gs {
				t.Fatalf("a revision-%d header read as %v, want a VersionError carrying seq %d", v, err, gs)
			}
		}
		flagged := append([]byte(nil), frame...)
		flagged[FrameHeaderLen-1] |= byte(1+len(body)%7) << 1
		if _, _, _, _, err := ReadFrame(bytes.NewReader(flagged)); err == nil {
			t.Fatal("an unknown trace flag was accepted")
		}
	})
}

// FuzzWireDecode throws arbitrary bytes at every decoder: truncated,
// oversized, bit-flipped, or garbage frames must yield an error (or a
// semantically valid object), never a panic, and never a huge allocation
// from a lying length prefix.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, MsgPing, 1, TraceHeader{}, nil))
	f.Add(AppendFrame(nil, MsgApply, 2, TraceHeader{Flags: TraceFlagSampled}, []byte{0, 1, 2, 3}))
	if err := wireFuzzSetup(); err == nil {
		p := wireFuzz.p
		f.Add(Hello{RingN: 32, Levels: 3, NormalLevels: 2, T: 65537}.Encode())
		f.Add(EncodeSetupKeys(p.R, wireFuzz.keys))
		if m, err := EncodeRegisterMatrix([][]uint64{{1, 2}, {3, 4}}); err == nil {
			f.Add(m)
		}
		rng := rand.New(rand.NewSource(1))
		ctV := core.EncryptVector(p, rng, wireFuzz.sk, []uint64{1, 2, 3})
		f.Add(EncodeApply(p.R, Apply{Vector: ctV}))
		f.Add(EncodeResult(p.R, Result{M: 1, N: 32, Packed: []*rlwe.Ciphertext{
			p.EncryptZeroSym(rng, wireFuzz.sk, p.NormalLevels),
		}}))
		f.Add(Errf(CodeInternal, "boom").Encode())
		f.Add(EncodeApply(p.R, Apply{Tiles: []uint32{0, 2}, Vector: ctV}))
		// Non-canonical packed words: a 5-byte residue at q_0 and above, an
		// Apply short of its last coefficient's last byte, and matrices at
		// widths 0, 9 and one wider than their entries need.
		over := EncodeApply(p.R, Apply{Vector: ctV})
		for i := 0; i < limbWidth(p.R, 0); i++ {
			over[32+8+4+4+2+i] = 0xFF
		}
		f.Add(over)
		short := EncodeApply(p.R, Apply{Vector: ctV})
		f.Add(short[:len(short)-1])
		for _, w := range []byte{0, 9, 2} {
			m := appendMatrixHeader(nil, 2, 2, int(w))
			f.Add(append(m, make([]byte, 4*int(w))...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := wireFuzzSetup(); err != nil {
			t.Fatal(err)
		}
		p := wireFuzz.p
		// The frame reader allocates at most 1 MiB ahead of the bytes that
		// arrived, so a lying length stays cheap.
		_, _, _, _, _ = ReadFrame(bytes.NewReader(data))
		// Every payload decoder must be total.
		_, _ = DecodeHello(data)
		_, _ = DecodeHelloOK(data)
		_, _ = DecodeSetupKeys(p.R, data)
		_, _ = DecodeSetupKeysOK(data)
		_, _ = DecodeRegisterMatrix(p.T.Q, data)
		_, _ = DecodeMatrixHandle(data)
		_, _ = DecodeApply(p.R, data)
		_, _ = DecodeResult(p.R, data)
		_, _ = DecodeError(data)
	})
}
