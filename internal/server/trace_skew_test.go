package server

// Version skew: there is one frame revision and no negotiation, so a peer
// of another revision is refused at the frame layer. This server tells
// such a peer why — one typed CodeVersionMismatch error — and closes; an
// old door just hangs up on this client. Either way no panic, no hang,
// and nothing is recorded or served on the peer's behalf.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/obs/trace"
	"cham/internal/testutil"
	"cham/internal/wire"
)

// appendV1Frame appends a frame of revision 1, the layout before every
// frame carried a trace block: magic(4) version(1) type(1) seq(2)
// length(4) payload.
func appendV1Frame(dst []byte, t wire.MsgType, seq uint16, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, wire.FrameMagic)
	dst = append(dst, 1, byte(t))
	dst = binary.LittleEndian.AppendUint16(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// TestTraceSkewTracedClientOldServer: against a peer of frame revision 1
// the client's first frame is refused — the peer hangs up — so the
// handshake fails within DialTimeout with a transport error.
func TestTraceSkewTracedClientOldServer(t *testing.T) {
	p := testParams(t, 32)
	const dialTimeout = 5 * time.Second
	cl := testClient(t, v1Door(t, p), p, func(c *client.Config) {
		c.DialTimeout = dialTimeout
		c.MaxRetries = -1
	})
	t0 := time.Now()
	_, err := cl.Hello()
	took := time.Since(t0)
	var we *wire.Error
	switch {
	case err == nil:
		t.Fatal("the handshake with a revision-1 peer succeeded")
	case errors.As(err, &we):
		t.Fatalf("the handshake failed with a typed rejection %v, want a transport error", err)
	case !strings.Contains(err.Error(), "transport"):
		t.Fatalf("the handshake failed with %v, want a transport error", err)
	case took >= dialTimeout:
		t.Fatalf("the handshake took %v, the dial timeout is %v", took, dialTimeout)
	}
}

// TestTraceSkewOldClientTracedServer: a hand-built 12-byte revision-1
// frame, and a revision-2 frame, are each answered with one typed
// version-mismatch error echoing their seq, then the connection closes;
// no span is recorded, and the server goes on serving a client of this
// revision.
func TestTraceSkewOldClientTracedServer(t *testing.T) {
	trace.Reset()
	trace.SetSampleRate(1)
	defer trace.SetSampleRate(0)
	defer trace.Reset()

	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	_, addr := testServer(t, Config{Params: p})

	// Revision 1, and revision 2 — the previous build, whose frames have
	// this layout but whose message bodies do not.
	v2 := wire.AppendFrame(nil, wire.MsgPing, 1, wire.TraceHeader{}, nil)
	v2[4] = 2
	for rev, frame := range map[int][]byte{1: appendV1Frame(nil, wire.MsgPing, 1, nil), 2: v2} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		reply, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("revision %d: %v", rev, err)
		}
		r := bytes.NewReader(reply)
		mt, seq, _, payload, err := wire.ReadFrame(r)
		if err != nil || mt != wire.MsgError || seq != 1 || r.Len() != 0 {
			t.Fatalf("the server answered a revision-%d frame with % x (err %v), want one error frame for seq 1, then the connection closed", rev, reply, err)
		}
		if we, err := wire.DecodeError(payload); err != nil || we.Code != wire.CodeVersionMismatch {
			t.Fatalf("revision %d: answered %v (%v), want version_mismatch", rev, we, err)
		}
	}
	if recs := trace.Records(); len(recs) != 0 {
		t.Fatalf("a refused frame left %d spans in the ring: %+v", len(recs), recs)
	}

	cl := testClient(t, addr, p, nil)
	setupKeys(t, cl, p, rng, sk)
	A := testutil.Matrix(rng, 24, 32, p.T.Q)
	h, err := cl.RegisterMatrix(A)
	if err != nil {
		t.Fatal(err)
	}
	v := testutil.Vector(rng, 32, p.T.Q)
	got, err := cl.Apply(h.ID, core.EncryptVector(p, rng, sk, v))
	if err != nil {
		t.Fatalf("apply after a refused revision-1 peer: %v", err)
	}
	dec := core.DecryptResult(p, &core.Result{M: int(got.M), N: int(got.N), Packed: got.Packed}, sk)
	for i, want := range core.PlainMatVec(p, A, v) {
		if dec[i] != want {
			t.Fatalf("row %d decrypts to %d, want %d", i, dec[i], want)
		}
	}
}

// v1Door stands in for a server of frame revision 1: a frame loop that
// reads the 12-byte revision-1 header, answers a Hello for p and refuses
// every other message with a typed error, and closes the connection on a
// frame of any other revision. It returns the door's address and closes
// with the test.
func v1Door(t *testing.T, p bfv.Params) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
		wg     sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	serve := func(nc net.Conn) {
		defer wg.Done()
		defer nc.Close()
		br := bufio.NewReader(nc)
		for {
			var hdr [12]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil ||
				binary.LittleEndian.Uint32(hdr[0:]) != wire.FrameMagic || hdr[4] != 1 {
				return
			}
			n := binary.LittleEndian.Uint32(hdr[8:])
			if n > 1<<20 {
				return
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(br, payload); err != nil {
				return
			}
			rt, rp := wire.MsgError, wire.Errf(wire.CodeBadRequest, "unexpected message type %d", hdr[5]).Encode()
			if wire.MsgType(hdr[5]) == wire.MsgHello {
				rt, rp = wire.MsgHelloOK, wire.HelloOK{Hello: wire.HelloFor(p), Engines: 1, MaxBatch: 1}.Encode()
			}
			if _, err := nc.Write(appendV1Frame(nil, rt, binary.LittleEndian.Uint16(hdr[6:]), rp)); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				mu.Unlock()
				nc.Close()
				return
			}
			conns = append(conns, nc)
			wg.Add(1)
			mu.Unlock()
			go serve(nc)
		}
	}()
	return ln.Addr().String()
}
