package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"cham/internal/bfv"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/ring"
	"cham/internal/rlwe"
	"cham/internal/testutil"
)

func testParams(t testing.TB, n int) bfv.Params {
	t.Helper()
	p, err := bfv.NewChamParams(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func samePoly(a, b *ring.Poly) bool {
	if a.Levels() != b.Levels() || a.IsNTT != b.IsNTT {
		return false
	}
	for l := range a.Coeffs {
		for i := range a.Coeffs[l] {
			if a.Coeffs[l][i] != b.Coeffs[l][i] {
				return false
			}
		}
	}
	return true
}

func sameCiphertext(a, b *rlwe.Ciphertext) bool {
	return samePoly(a.B, b.B) && samePoly(a.A, b.A)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	th := TraceHeader{TraceID: [16]byte{7}, SpanID: [8]byte{9}, Flags: TraceFlagSampled}
	if err := WriteFrame(&buf, MsgApply, 42, th, payload); err != nil {
		t.Fatal(err)
	}
	typ, seq, gotTH, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgApply || seq != 42 || gotTH != th || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type=%v seq=%d trace=%+v payload=%v", typ, seq, gotTH, got)
	}
}

// TestFrameLayout pins the bytes of one frame, so no field offset can
// drift without this golden changing.
func TestFrameLayout(t *testing.T) {
	th := TraceHeader{Flags: TraceFlagSampled}
	for i := range th.TraceID {
		th.TraceID[i] = 0x10 + byte(i)
	}
	for i := range th.SpanID {
		th.SpanID[i] = 0xa0 + byte(i)
	}
	want, err := hex.DecodeString("43485756" + // magic "CHWV"
		"04" + // version
		"07" + // type: Apply
		"0201" + // seq 0x0102
		"02000000" + // payload length
		"101112131415161718191a1b1c1d1e1f" + // traceID
		"a0a1a2a3a4a5a6a7" + // spanID
		"01" + // flags: sampled
		"dead") // payload
	if err != nil {
		t.Fatal(err)
	}
	got := AppendFrame(nil, MsgApply, 0x0102, th, []byte{0xde, 0xad})
	if !bytes.Equal(got, want) {
		t.Fatalf("frame bytes\n got % x\nwant % x", got, want)
	}
	if len(got) != FrameHeaderLen+2 {
		t.Fatalf("FrameHeaderLen %d, but the frame of a 2-byte payload is %d bytes", FrameHeaderLen, len(got))
	}
	typ, seq, gotTH, payload, err := ReadFrame(bytes.NewReader(want), 0)
	if err != nil || typ != MsgApply || seq != 0x0102 || gotTH != th || !bytes.Equal(payload, []byte{0xde, 0xad}) {
		t.Fatalf("golden frame read back as type=%v seq=%#x trace=%+v payload=% x err=%v", typ, seq, gotTH, payload, err)
	}
}

func TestFrameRejections(t *testing.T) {
	good := AppendFrame(nil, MsgPing, 0, TraceHeader{}, nil)

	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("bad magic accepted")
	}

	for _, v := range []byte{1, 2, 3, 99} {
		bad = append([]byte(nil), good...)
		bad[4] = v
		if _, _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}

	// Flag bits beyond sampled are refused.
	bad = append([]byte(nil), good...)
	bad[FrameHeaderLen-1] = 0x02
	if _, _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("unknown trace flag accepted")
	}

	// Oversized length rejected before the body is read.
	over := AppendFrame(nil, MsgPing, 0, TraceHeader{}, make([]byte, 100))
	if _, _, _, _, err := ReadFrame(bytes.NewReader(over), 10); err == nil {
		t.Fatal("oversized frame accepted")
	}

	// Truncated body.
	if _, _, _, _, err := ReadFrame(bytes.NewReader(over[:FrameHeaderLen+20]), 0); err == nil {
		t.Fatal("truncated frame accepted")
	}

	// Truncated header is an error, never a panic.
	for cut := 0; cut < len(good); cut++ {
		if _, _, _, _, err := ReadFrame(bytes.NewReader(good[:cut]), 0); err == nil {
			t.Fatalf("header cut at %d accepted", cut)
		}
	}
}

// TestReadFrameLyingLength: a header claiming 200 MiB followed by 10 bytes
// and EOF is a truncated frame, and reading it allocates about what
// arrived, not what was claimed.
func TestReadFrameLyingLength(t *testing.T) {
	frame := AppendFrame(nil, MsgApply, 1, TraceHeader{}, make([]byte, 10))
	binary.LittleEndian.PutUint32(frame[8:], 200<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, _, err := ReadFrame(bytes.NewReader(frame), 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying length read returned %v, want the truncation error", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Fatalf("reading 10 bytes of a 200 MiB claim allocated %d bytes", d)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	p := testParams(t, 64)
	h := HelloFor(p)
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello round trip: %+v != %+v", got, h)
	}
	ok := HelloOK{Hello: h, Engines: 2, MaxBatch: 16}
	gotOK, err := DecodeHelloOK(ok.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != ok {
		t.Fatalf("helloOK round trip: %+v != %+v", gotOK, ok)
	}
	if _, err := DecodeHello(append(h.Encode(), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestSetupKeysRoundTrip(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeSetupKeys(p.R, keys)
	// Deterministic encoding: re-encoding yields the same bytes and hash.
	if !bytes.Equal(payload, EncodeSetupKeys(p.R, keys)) {
		t.Fatal("SetupKeys encoding not deterministic")
	}
	got, err := DecodeSetupKeys(p.R, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != keys.M || len(got.Keys) != len(keys.Keys) {
		t.Fatalf("key set shape: M=%d keys=%d", got.M, len(got.Keys))
	}
	for k, swk := range keys.Keys {
		g := got.Keys[k]
		if g == nil {
			t.Fatalf("missing key %d", k)
		}
		for j := range swk.Bs {
			if !samePoly(swk.Bs[j], g.Bs[j]) || !samePoly(swk.As[j], g.As[j]) {
				t.Fatalf("key %d digit %d mismatch", k, j)
			}
		}
		if g.BsShoup == nil {
			t.Fatalf("key %d decoded without Shoup precomputation", k)
		}
	}
	if KeyHash(p.R, keys) != KeyHash(p.R, got) {
		t.Fatal("key hash not stable across a round trip")
	}

	// A decoded key set must drive a working evaluator.
	ev, err := core.NewEvaluatorFromKeys(p, got)
	if err != nil {
		t.Fatal(err)
	}
	A := testutil.Matrix(rng, 4, p.R.N, p.T.Q)
	v := testutil.Vector(rng, p.R.N, p.T.Q)
	ctV := core.EncryptVector(p, rng, sk, v)
	res, err := ev.MatVec(A, ctV)
	if err != nil {
		t.Fatal(err)
	}
	want := core.PlainMatVec(p, A, v)
	for i, g := range core.DecryptResult(p, res, sk) {
		if g != want[i] {
			t.Fatalf("row %d: got %d want %d", i, g, want[i])
		}
	}
}

func TestSetupKeysRejectsIncompleteSet(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, 8)
	if err != nil {
		t.Fatal(err)
	}
	delete(keys.Keys, 5) // drop the i=2 automorphism key
	payload := EncodeSetupKeys(p.R, keys)
	if _, err := DecodeSetupKeys(p.R, payload); err == nil {
		t.Fatal("incomplete key set accepted")
	}
}

func TestRegisterMatrixRoundTrip(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	A := testutil.Matrix(rng, 5, 70, p.T.Q)
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
				t.Fatalf("entry (%d,%d): %d != %d", i, j, got[i][j], A[i][j])
			}
		}
	}
	id1, _ := MatrixID(A)
	id2, _ := MatrixID(got)
	if id1 != id2 {
		t.Fatal("matrix ID not stable across a round trip")
	}

	// Unreduced entries are rejected.
	A[0][0] = p.T.Q
	bad, err := EncodeRegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRegisterMatrix(p.T.Q, bad); err == nil {
		t.Fatal("unreduced matrix entry accepted")
	}

	// Ragged and empty matrices are rejected at encode time.
	if _, err := EncodeRegisterMatrix([][]uint64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix encoded")
	}
	if _, err := EncodeRegisterMatrix(nil); err == nil {
		t.Fatal("empty matrix encoded")
	}
}

func TestApplyAndResultRoundTrip(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	v := testutil.Vector(rng, 2*p.R.N, p.T.Q) // two chunks
	ctV := core.EncryptVector(p, rng, sk, v)

	a := Apply{DeadlineMicros: 12345, Vector: ctV}
	for i := range a.ID {
		a.ID[i] = byte(i)
	}
	got, err := DecodeApply(p.R, EncodeApply(p.R, a))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != a.ID || got.DeadlineMicros != a.DeadlineMicros || len(got.Vector) != len(ctV) {
		t.Fatalf("apply header mismatch: %+v", got)
	}
	for i := range ctV {
		if !sameCiphertext(got.Vector[i], ctV[i]) {
			t.Fatalf("vector chunk %d mismatch", i)
		}
	}

	res := Result{M: uint32(p.R.N + 7), N: uint32(p.R.N), Packed: []*rlwe.Ciphertext{
		p.EncryptZeroSym(rng, sk, p.NormalLevels),
		p.EncryptZeroSym(rng, sk, p.NormalLevels),
	}}
	gotRes, err := DecodeResult(p.R, EncodeResult(p.R, res))
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.M != res.M || gotRes.N != res.N || len(gotRes.Packed) != len(res.Packed) {
		t.Fatalf("result header mismatch: %+v", gotRes)
	}
	for i := range res.Packed {
		if !sameCiphertext(gotRes.Packed[i], res.Packed[i]) {
			t.Fatalf("result tile %d mismatch", i)
		}
	}
}

// TestTileListedApplyAndResult: the shard leg of a scatter is an Apply
// request with a tile list, answered by a labelled Result.
func TestTileListedApplyAndResult(t *testing.T) {
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ctV := core.EncryptVector(p, rng, sk, testutil.Vector(rng, p.R.N, p.T.Q))
	id := [32]byte{7}

	a := Apply{ID: id, DeadlineMicros: 5, Tiles: []uint32{0, 2, 5}, Vector: ctV}
	got, err := DecodeApply(p.R, EncodeApply(p.R, a))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Tiles, a.Tiles) || len(got.Vector) != 1 || !sameCiphertext(got.Vector[0], ctV[0]) {
		t.Fatalf("tile-listed apply round trip: %+v", got)
	}
	for name, bad := range map[string]Apply{
		"tiles not ascending":      {ID: id, Tiles: []uint32{2, 1}, Vector: ctV},
		"tiles with a duplicate":   {ID: id, Tiles: []uint32{3, 3}, Vector: ctV},
		"tile list over the limit": {ID: id, Tiles: make([]uint32, MaxVectorChunks+1), Vector: ctV},
	} {
		if _, err := DecodeApply(p.R, EncodeApply(p.R, bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Rows 0..5N-1 are 5 tiles; a labelled result names a subset of them.
	one := p.EncryptZeroSym(rng, sk, p.NormalLevels)
	res := Result{M: uint32(5 * p.R.N), N: uint32(p.R.N), Tiles: []uint32{1, 4}, Packed: []*rlwe.Ciphertext{one, one}}
	back, err := DecodeResult(p.R, EncodeResult(p.R, res))
	if err != nil {
		t.Fatal(err)
	}
	if back.M != res.M || !slices.Equal(back.Tiles, res.Tiles) || len(back.Packed) != 2 || !sameCiphertext(back.Packed[1], one) {
		t.Fatalf("labelled result round trip: %+v", back)
	}
}

// TestDecodeResultRejectsBadHeader: a Result whose header disagrees with
// what it carries is refused at decode, before anyone sizes a decryption
// from it. Unchecked, M = 2^31 with one ciphertext sends DecryptResult
// after 2^31 slots, and a wrong N makes it read the wrong slots or none.
func TestDecodeResultRejectsBadHeader(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ct := p.EncryptZeroSym(rng, sk, p.NormalLevels)
	one, two := []*rlwe.Ciphertext{ct}, []*rlwe.Ciphertext{ct, ct}
	n := uint32(p.R.N)
	for _, tc := range []struct {
		name string
		res  Result
	}{
		{"M=2^31 with one ciphertext", Result{M: 1 << 31, N: n, Packed: one}},
		{"N=0", Result{M: n, N: 0, Packed: one}},
		{"N=2·ring N", Result{M: n, N: 2 * n, Packed: one}},
		{"two ciphertexts for one tile", Result{M: n, N: n, Packed: two}},
		{"labels not ascending", Result{M: 2 * n, N: n, Tiles: []uint32{1, 0}, Packed: two}},
		{"label past the last tile", Result{M: 2 * n, N: n, Tiles: []uint32{2}, Packed: one}},
		{"fewer ciphertexts than labels", Result{M: 2 * n, N: n, Tiles: []uint32{0, 1}, Packed: one}},
	} {
		if _, err := DecodeResult(p.R, EncodeResult(p.R, tc.res)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	if _, err := DecodeResult(p.R, EncodeResult(p.R, Result{M: n + 1, N: n, Packed: two})); err != nil {
		t.Fatalf("a well-formed two-tile result was refused: %v", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := Errf(CodeUnknownMatrix, "no matrix %x", []byte{0xAB})
	got, err := DecodeError(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != e.Code || got.Detail != e.Detail {
		t.Fatalf("error round trip: %+v", got)
	}
	if !errors.Is(got, &Error{Code: CodeUnknownMatrix}) {
		t.Fatal("errors.Is by code failed")
	}
	if got.Retryable() {
		t.Fatal("unknown_matrix must not be retryable")
	}
	if !ErrOverloaded.Retryable() || !(&Error{Code: CodeDraining}).Retryable() {
		t.Fatal("overloaded/draining must be retryable")
	}

	// Detail strings are truncated at encode, bounded at decode.
	long := Errf(CodeInternal, "%s", string(make([]byte, 2*MaxErrorDetail)))
	dec, err := DecodeError(long.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Detail) != MaxErrorDetail {
		t.Fatalf("detail length %d, want %d", len(dec.Detail), MaxErrorDetail)
	}
}

func TestReaderBounds(t *testing.T) {
	d := NewReader([]byte{1, 2})
	if d.U32(); d.Err() == nil {
		t.Fatal("short U32 read succeeded")
	}
	// Lying blob prefix: claims 4 GiB with 1 byte behind it.
	d = NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	if d.Blob(); d.Err() == nil {
		t.Fatal("lying blob length accepted")
	}
	// Trailing input rejected by Done.
	d = NewReader([]byte{1, 2, 3, 4, 5})
	d.U32()
	if err := d.Done(); err == nil {
		t.Fatal("trailing byte accepted by Done")
	}
}
