package wire

import (
	"bytes"
	"errors"
	"io"
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
	if err := WriteFrame(&buf, MsgApply, 42, payload); err != nil {
		t.Fatal(err)
	}
	typ, seq, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgApply || seq != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type=%v seq=%d payload=%v", typ, seq, got)
	}
}

func TestFrameRejections(t *testing.T) {
	good := AppendFrame(nil, MsgPing, 0, nil)

	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, _, _, err := ReadFrame(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("bad version accepted")
	}

	// Oversized length rejected before the body is read.
	over := AppendFrame(nil, MsgPing, 0, make([]byte, 100))
	if _, _, _, err := ReadFrame(bytes.NewReader(over), 10); err == nil {
		t.Fatal("oversized frame accepted")
	}

	// Truncated body.
	if _, _, _, err := ReadFrame(bytes.NewReader(over[:20]), 0); err == nil {
		t.Fatal("truncated frame accepted")
	}

	// Truncated header is io.EOF / ErrUnexpectedEOF, never a panic.
	for cut := 0; cut < len(good); cut++ {
		if _, _, _, err := ReadFrame(bytes.NewReader(good[:cut]), 0); err == nil {
			t.Fatalf("header cut at %d accepted", cut)
		}
	}
	_ = io.EOF
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

	res := Result{M: 7, N: uint32(p.R.N), Packed: []*rlwe.Ciphertext{
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
