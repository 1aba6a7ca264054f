package wire

import (
	"bytes"
	"math/rand"
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

// FuzzWireRoundTrip checks encode∘decode identity on fuzz-chosen protocol
// objects: matrices, apply requests, results and errors must survive a
// trip through their encodings bit for bit.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(40), int64(1), uint16(3))
	f.Add(uint8(7), uint8(90), int64(-9), uint16(1))
	f.Add(uint8(1), uint8(1), int64(0), uint16(9))
	f.Fuzz(func(t *testing.T, rowsSel, colsSel uint8, seed int64, code uint16) {
		if err := wireFuzzSetup(); err != nil {
			t.Fatal(err)
		}
		p := wireFuzz.p
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + int(rowsSel)%8
		cols := 1 + int(colsSel)%(3*p.R.N)

		// Matrix: canonical encoding, stable ID, exact values back.
		A := make([][]uint64, rows)
		for i := range A {
			A[i] = make([]uint64, cols)
			for j := range A[i] {
				A[i][j] = rng.Uint64() % p.T.Q
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
		back, err := DecodeApply(p.R, EncodeApply(p.R, a))
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != a.ID || back.DeadlineMicros != a.DeadlineMicros || len(back.Vector) != len(ctV) {
			t.Fatal("apply header changed")
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

// FuzzWireClusterDecode hammers the cluster-tier codecs: encode∘decode
// identity on fuzz-shaped tile jobs and registry syncs, then every
// cluster decoder over mutations of those bytes — truncation, bit flips,
// and garbage must yield errors, never panics.
func FuzzWireClusterDecode(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0), []byte{})
	f.Add(int64(7), uint8(1), uint8(0), uint8(1), []byte{0xff, 0x00})
	f.Add(int64(-3), uint8(9), uint8(5), uint8(200), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, seed int64, tileSel, matSel, mutate uint8, raw []byte) {
		if err := wireFuzzSetup(); err != nil {
			t.Fatal(err)
		}
		p := wireFuzz.p
		rng := rand.New(rand.NewSource(seed))

		// Round trip a well-formed TileApply (warm and vector-carrying).
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
		ta := TileApply{DeadlineMicros: uint64(seed), Tiles: tiles, Vector: ctV}
		rng.Read(ta.ID[:])
		back, err := DecodeTileApply(p.R, EncodeTileApply(p.R, ta))
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != ta.ID || back.Warm || len(back.Tiles) != nTiles || len(back.Vector) != len(ctV) {
			t.Fatal("tile apply header changed")
		}
		for i := range tiles {
			if back.Tiles[i] != tiles[i] {
				t.Fatalf("tile %d changed", i)
			}
		}
		warm := TileApply{ID: ta.ID, Warm: true, Tiles: tiles}
		backWarm, err := DecodeTileApply(p.R, EncodeTileApply(p.R, warm))
		if err != nil || !backWarm.Warm || len(backWarm.Vector) != 0 {
			t.Fatalf("warm tile apply round trip: %v", err)
		}

		// Round trip a TileResult with real ciphertexts.
		tr := TileResult{M: uint32(8 * nTiles), N: uint32(p.R.N), Tiles: tiles}
		for range tiles {
			tr.Packed = append(tr.Packed, p.EncryptZeroSym(rng, wireFuzz.sk, p.NormalLevels))
		}
		trBytes := EncodeTileResult(p.R, tr)
		backTR, err := DecodeTileResult(p.R, trBytes)
		if err != nil {
			t.Fatal(err)
		}
		if backTR.M != tr.M || backTR.N != tr.N || len(backTR.Packed) != len(tr.Packed) {
			t.Fatal("tile result header changed")
		}
		for i := range tr.Packed {
			if backTR.Tiles[i] != tr.Tiles[i] || !sameCiphertext(backTR.Packed[i], tr.Packed[i]) {
				t.Fatalf("result tile %d changed", i)
			}
		}

		// Round trip a RegistrySync/RegistryState pair.
		nMats := int(matSel) % 4
		var mats [][]byte
		for i := 0; i < nMats; i++ {
			m, err := EncodeRegisterMatrix([][]uint64{{uint64(i), 2}, {3, uint64(rng.Intn(100))}})
			if err != nil {
				t.Fatal(err)
			}
			mats = append(mats, m)
		}
		rs := RegistrySync{Push: seed%2 == 0, Keys: raw, Matrices: mats}
		if len(rs.Keys) == 0 {
			rs.Keys = nil
		}
		backRS, err := DecodeRegistrySync(rs.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if backRS.Push != rs.Push || len(backRS.Matrices) != nMats || !bytes.Equal(backRS.Keys, rs.Keys) {
			t.Fatal("registry sync changed")
		}
		st := RegistryState{Keys: rs.Keys, Matrices: mats}
		rng.Read(st.KeyHash[:])
		backST, err := DecodeRegistryState(st.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if backST.KeyHash != st.KeyHash || len(backST.Matrices) != nMats {
			t.Fatal("registry state changed")
		}

		// Every cluster decoder must be total over mutated encodings.
		for _, data := range [][]byte{EncodeTileApply(p.R, ta), trBytes, rs.Encode(), st.Encode(), raw} {
			if len(data) > 0 && mutate > 0 {
				data = append([]byte(nil), data...)
				for k := 0; k < int(mutate)%8+1; k++ {
					data[rng.Intn(len(data))] ^= byte(1 << (rng.Intn(8)))
				}
				if cut := rng.Intn(len(data) + 1); seed%3 == 0 {
					data = data[:cut]
				}
			}
			_, _ = DecodeTileApply(p.R, data)
			_, _ = DecodeTileResult(p.R, data)
			_, _ = DecodeRegistrySync(data)
			_, _ = DecodeRegistryState(data)
		}
	})
}

// FuzzWireTraceHeaderDecode covers the tracing extension: round-trip
// identity for well-formed traced frames through ReadFrameAny, and
// totality of the trace decoders over arbitrary bytes — truncated or
// garbage trace blocks must error, never panic, and a v1 frame must
// come back with a zero header.
func FuzzWireTraceHeaderDecode(f *testing.F) {
	th := TraceHeader{Flags: TraceFlagSampled}
	for i := range th.TraceID {
		th.TraceID[i] = byte(i + 1)
	}
	for i := range th.SpanID {
		th.SpanID[i] = byte(0xa0 + i)
	}
	f.Add(AppendFrameTraced(nil, MsgApply, 7, th, []byte{1, 2, 3}), []byte{9, 9})
	f.Add(AppendFrame(nil, MsgPing, 1, nil), []byte{})
	f.Add(AppendTraceHeader(nil, th), []byte{0xff})
	f.Add([]byte{0x43, 0x48, 0x57, 0x56, 2, 7, 0, 0, 0, 0, 0, 0}, []byte{1})
	f.Fuzz(func(t *testing.T, data, body []byte) {
		// Totality over arbitrary bytes.
		_, _, _ = DecodeTraceHeader(data)
		_, _ = DecodeTraceHello(data)
		_, _ = DecodeTraceHelloOK(data)
		_, _, _, _, _ = ReadFrameAny(bytes.NewReader(data), 1<<20)

		// A v1 frame read by ReadFrameAny must agree with ReadFrame and
		// carry no trace context.
		v1 := AppendFrame(nil, MsgType(len(data)), uint16(len(body)), body)
		t1, s1, p1, err1 := ReadFrame(bytes.NewReader(v1), 0)
		t2, s2, h2, p2, err2 := ReadFrameAny(bytes.NewReader(v1), 0)
		if (err1 == nil) != (err2 == nil) || t1 != t2 || s1 != s2 || !h2.IsZero() || !bytes.Equal(p1, p2) {
			t.Fatalf("v1 frame disagreement: %v vs %v", err1, err2)
		}

		// Traced round trip: header and body must come back exactly.
		var hdr TraceHeader
		copy(hdr.TraceID[:], data)
		copy(hdr.SpanID[:], body)
		hdr.Flags = TraceFlagSampled
		frame := AppendFrameTraced(nil, MsgTileApply, 3, hdr, body)
		gt, gs, gh, gp, err := ReadFrameAny(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("traced round trip failed: %v", err)
		}
		if gt != MsgTileApply || gs != 3 || gh != hdr || !bytes.Equal(gp, body) {
			t.Fatal("traced frame changed in flight")
		}
		// And a strict v1 reader must refuse the revision, not panic.
		if _, _, _, err := ReadFrame(bytes.NewReader(frame), 0); err == nil {
			t.Fatal("v1 reader accepted a traced frame")
		}
	})
}

// FuzzWireDecode throws arbitrary bytes at every decoder: truncated,
// oversized, bit-flipped, or garbage frames must yield an error (or a
// semantically valid object), never a panic, and never a huge allocation
// from a lying length prefix.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, MsgPing, 1, nil))
	f.Add(AppendFrame(nil, MsgApply, 2, []byte{0, 1, 2, 3}))
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
		f.Add(EncodeTileApply(p.R, TileApply{Tiles: []uint32{0, 2}, Vector: ctV}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := wireFuzzSetup(); err != nil {
			t.Fatal(err)
		}
		p := wireFuzz.p
		// Frame reader with a small cap so fuzz inputs stay cheap.
		_, _, _, _ = ReadFrame(bytes.NewReader(data), 1<<20)
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
		_, _ = DecodeTileApply(p.R, data)
		_, _ = DecodeTileResult(p.R, data)
		_, _ = DecodeRegistrySync(data)
		_, _ = DecodeRegistryState(data)
	})
}
