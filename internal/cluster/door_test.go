package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"cham/internal/bfv"
	"cham/internal/client"
	"cham/internal/core"
	"cham/internal/lwe"
	"cham/internal/obs"
	"cham/internal/obs/trace"
	"cham/internal/rlwe"
	rt "cham/internal/runtime"
	"cham/internal/server"
	"cham/internal/testutil"
	"cham/internal/wire"
)

// One conformance table, two doors: server.Server and Gateway share one
// wire front end (server.FrontEnd), so everything a client can observe at
// the door — handshake gate, trace blocks, typed rejections, frame bounds,
// the drain barrier — is asserted once and run against both.

// doorFixture is the workload every row uses: one matrix, one encrypted
// vector, and the in-process result any reply must equal bit for bit.
type doorFixture struct {
	p    bfv.Params
	keys *lwe.PackingKeys
	A    [][]uint64
	ctV  []*rlwe.Ciphertext
	want *core.Result
}

// door is one serving endpoint under test, with the fixture's keys
// installed and its matrix registered.
type door struct {
	addr     string
	handle   wire.MatrixHandle
	shutdown func(context.Context) error
	served   chan error
	// started counts compute requests the door has begun working on behind
	// its drain barrier: requests picked up by a server's workers, scatters
	// begun by a gateway.
	started func() uint64
}

type doorOpts struct {
	jobDur   time.Duration // latency of every card job behind the door (0 = no card)
	maxFrame uint32
}

func slowCard(t *testing.T, d time.Duration) *rt.Runtime {
	t.Helper()
	card, err := rt.New(rt.NewDevice(2, d, rt.FaultPlan{}))
	if err != nil {
		t.Fatal(err)
	}
	card.JobTimeout = 30 * time.Second
	return card
}

// open serves the door's front end — the same type behind both doors —
// on a loopback listener and registers the fixture through it, as any
// client would.
func (fx *doorFixture) open(t *testing.T, d *door, fe *server.FrontEnd) *door {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr, d.served = ln.Addr().String(), make(chan error, 1)
	go func() { d.served <- fe.Serve(ln) }()
	cl := fx.dial(t, d)
	if _, err := cl.SetupKeys(fx.keys); err != nil {
		t.Fatal(err)
	}
	if d.handle, err = cl.RegisterMatrix(fx.A); err != nil {
		t.Fatal(err)
	}
	return d
}

func (fx *doorFixture) dial(t *testing.T, d *door) *client.Client {
	t.Helper()
	cl, err := client.Dial(client.Config{Addr: d.addr, Params: fx.p, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func (fx *doorFixture) serverDoor(t *testing.T, o doorOpts) *door {
	t.Helper()
	cfg := server.Config{Params: fx.p, Linger: time.Millisecond, MaxFrame: o.maxFrame}
	if o.jobDur > 0 {
		cfg.Card = slowCard(t, o.jobDur)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	picked := obs.GetHistogram("cham_server_batch_size", "", nil)
	return fx.open(t, &door{
		shutdown: s.Shutdown,
		started:  func() uint64 { return uint64(picked.Sum()) },
	}, &s.FrontEnd)
}

func (fx *doorFixture) gatewayDoor(t *testing.T, o doorOpts) *door {
	t.Helper()
	co, _ := newCluster(t, fx.p, 2, func(c *server.Config) {
		if o.jobDur > 0 {
			c.Card = slowCard(t, o.jobDur)
		}
	}, func(c *Config) { c.HedgeDelay = 10 * time.Second }) // a hedge would start a second card job
	gw, err := NewGateway(GatewayConfig{Coordinator: co, MaxFrame: o.maxFrame})
	if err != nil {
		t.Fatal(err)
	}
	return fx.open(t, &door{shutdown: gw.Shutdown, started: mScatters.Value}, &gw.FrontEnd)
}

// close drains a door that a row left running.
func (d *door) close(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	if err := <-d.served; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// rawConn is a client that speaks frames by hand, for what the client
// library cannot send: requests before the handshake, unknown message
// types, oversized frames, chosen deadlines and trace blocks. It counts
// the bytes its frames put on and take off the connection.
type rawConn struct {
	t      *testing.T
	c      net.Conn
	seq    uint16
	rx, tx uint64
}

func (rc *rawConn) Read(b []byte) (int, error) {
	n, err := rc.c.Read(b)
	rc.rx += uint64(n)
	return n, err
}

func (rc *rawConn) Write(b []byte) (int, error) {
	n, err := rc.c.Write(b)
	rc.tx += uint64(n)
	return n, err
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return &rawConn{t: t, c: c}
}

func (rc *rawConn) send(mt wire.MsgType, payload []byte) {
	rc.t.Helper()
	rc.sendTraced(mt, wire.TraceHeader{}, payload)
}

func (rc *rawConn) sendTraced(mt wire.MsgType, th wire.TraceHeader, payload []byte) {
	rc.t.Helper()
	rc.seq++
	if err := wire.WriteFrame(rc, mt, rc.seq, th, payload); err != nil {
		rc.t.Fatal(err)
	}
}

// recv reads the reply to the last request sent.
func (rc *rawConn) recv() (wire.MsgType, []byte) {
	rc.t.Helper()
	mt, seq, _, payload, err := wire.ReadFrame(rc, 0)
	if err != nil {
		rc.t.Fatalf("reading the reply to request %d: %v", rc.seq, err)
	}
	if seq != rc.seq {
		rc.t.Fatalf("reply carries seq %d, want %d", seq, rc.seq)
	}
	return mt, payload
}

// call round-trips one request and requires the given reply type.
func (rc *rawConn) call(mt, want wire.MsgType, payload []byte) []byte {
	rc.t.Helper()
	rc.send(mt, payload)
	got, resp := rc.recv()
	if got == wire.MsgError {
		we, _ := wire.DecodeError(resp)
		rc.t.Fatalf("%v rejected: %v", mt, we)
	}
	if got != want {
		rc.t.Fatalf("%v answered with %v, want %v", mt, got, want)
	}
	return resp
}

// recvErr requires the reply to the last request to be a typed error.
func (rc *rawConn) recvErr(code uint16) *wire.Error {
	rc.t.Helper()
	mt, resp := rc.recv()
	if mt != wire.MsgError {
		rc.t.Fatalf("answered with %v, want a typed error (%s)", mt, wire.CodeName(code))
	}
	we, err := wire.DecodeError(resp)
	if err != nil {
		rc.t.Fatal(err)
	}
	if we.Code != code {
		rc.t.Fatalf("typed error %v, want %s", we, wire.CodeName(code))
	}
	return we
}

func (rc *rawConn) hello(p bfv.Params) {
	rc.t.Helper()
	rc.call(wire.MsgHello, wire.MsgHelloOK, wire.HelloFor(p).Encode())
}

// closed requires the door to have closed the connection.
func (rc *rawConn) closed() {
	rc.t.Helper()
	rc.c.SetDeadline(time.Now().Add(10 * time.Second))
	if n, err := rc.c.Read(make([]byte, 1)); err == nil {
		rc.t.Fatalf("connection still open: read %d more bytes", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		rc.t.Fatal("connection still open after 10s")
	}
}

// sampledHeader is a fresh sampled trace block, as a traced caller's frame
// carries it.
func sampledHeader(rng *rand.Rand) wire.TraceHeader {
	th := wire.TraceHeader{Flags: wire.TraceFlagSampled}
	rng.Read(th.TraceID[:])
	rng.Read(th.SpanID[:])
	return th
}

func (fx *doorFixture) applyPayload(d *door, deadline time.Duration) []byte {
	return wire.EncodeApply(fx.p.R, wire.Apply{
		ID: d.handle.ID, DeadlineMicros: uint64(deadline / time.Microsecond), Vector: fx.ctV,
	})
}

// checkResult requires a MsgResult payload bit-identical to the
// in-process apply.
func (fx *doorFixture) checkResult(t *testing.T, payload []byte) {
	t.Helper()
	got, err := wire.DecodeResult(fx.p.R, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packed) != len(fx.want.Packed) {
		t.Fatalf("result carries %d tiles, want %d", len(got.Packed), len(fx.want.Packed))
	}
	for i := range got.Packed {
		if !sameCiphertext(got.Packed[i], fx.want.Packed[i]) {
			t.Fatalf("tile %d not bit-identical to the in-process apply", i)
		}
	}
}

// waitStarted blocks until the door has begun n more compute requests
// than at since.
func (d *door) waitStarted(t *testing.T, since uint64, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); d.started() < since+uint64(n); {
		if time.Now().After(deadline) {
			t.Fatal("the request never got behind the door's drain barrier")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDoorConformance(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluatorFromKeys(p, keys)
	if err != nil {
		t.Fatal(err)
	}
	fx := &doorFixture{p: p, keys: keys, A: testutil.Matrix(rng, 96, 32, p.T.Q)}
	pm, err := ev.Prepare(fx.A)
	if err != nil {
		t.Fatal(err)
	}
	fx.ctV = core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))
	if fx.want, err = pm.Apply(fx.ctV); err != nil {
		t.Fatal(err)
	}

	for _, kind := range []struct {
		name string
		mk   func(*testing.T, doorOpts) *door
	}{
		{"server", fx.serverDoor},
		{"gateway", fx.gatewayDoor},
	} {
		mk := kind.mk
		t.Run(kind.name, func(t *testing.T) {
			const maxFrame = 1 << 20
			d := mk(t, doorOpts{maxFrame: maxFrame})
			defer d.close(t)

			t.Run("request before Hello", func(t *testing.T) {
				rc := dialRaw(t, d.addr)
				rc.send(wire.MsgApply, fx.applyPayload(d, time.Second))
				rc.recvErr(wire.CodeBadRequest)
				rc.hello(p) // the rejection left the stream in sync
				fx.checkResult(t, rc.call(wire.MsgApply, wire.MsgResult, fx.applyPayload(d, 10*time.Second)))
			})

			t.Run("Ping before Hello", func(t *testing.T) {
				pings := obs.GetCounter("cham_server_requests_total", "", "type", "ping")
				before := pings.Value()
				rc := dialRaw(t, d.addr)
				if echo := rc.call(wire.MsgPing, wire.MsgPong, []byte("cham")); string(echo) != "cham" {
					t.Fatalf("pong carries %q, want the ping's payload", echo)
				}
				// Each door charges its own families: nothing behind a gateway
				// pings a shard, so cham_server_* moves for the server only.
				want := uint64(0)
				if kind.name == "server" {
					want = 1
				}
				if got := pings.Value() - before; got != want {
					t.Errorf("cham_server_requests_total{type=ping} moved by %d at the %s door, want %d", got, kind.name, want)
				}
			})

			t.Run("params mismatch", func(t *testing.T) {
				rc := dialRaw(t, d.addr)
				rc.send(wire.MsgHello, wire.HelloFor(testParams(t, 16)).Encode())
				if we := rc.recvErr(wire.CodeParamsMismatch); we.Retryable() {
					t.Fatal("params mismatch must not be retryable")
				}
				// The failed handshake did not open the gate.
				rc.send(wire.MsgApply, fx.applyPayload(d, time.Second))
				rc.recvErr(wire.CodeBadRequest)
				// The client library surfaces the same typed error from Dial's handshake.
				cl, err := client.Dial(client.Config{Addr: d.addr, Params: testParams(t, 16), MaxRetries: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				var we *wire.Error
				if _, err := cl.Hello(); !errors.As(err, &we) || we.Code != wire.CodeParamsMismatch {
					t.Fatalf("client handshake returned %v, want params mismatch", err)
				}
			})

			t.Run("TraceHello", func(t *testing.T) {
				// The trace block of the apply frame parents the door's
				// spans, though this process samples nothing itself.
				rc := dialRaw(t, d.addr)
				rc.hello(p)
				th := sampledHeader(rng)
				rc.sendTraced(wire.MsgApply, th, fx.applyPayload(d, 10*time.Second))
				mt, resp := rc.recv()
				if mt != wire.MsgResult {
					t.Fatalf("traced apply answered with %v", mt)
				}
				fx.checkResult(t, resp)
				parented := 0
				for _, r := range trace.TraceRecords(trace.TraceID(th.TraceID)) {
					if r.Service == kind.name && r.Parent == trace.SpanID(th.SpanID) {
						parented++
					}
				}
				if parented == 0 {
					t.Errorf("no %s span hangs under the apply frame's trace block", kind.name)
				}
			})

			if kind.name == "server" { // a gateway's bytes are charged by the shards behind it
				t.Run("byte counters", func(t *testing.T) {
					rxTotal := obs.GetCounter("cham_server_bytes_rx_total", "")
					txTotal := obs.GetCounter("cham_server_bytes_tx_total", "")
					rx0, tx0 := rxTotal.Value(), txTotal.Value()
					rc := dialRaw(t, d.addr)
					rc.hello(p)
					rc.sendTraced(wire.MsgApply, sampledHeader(rng), fx.applyPayload(d, 10*time.Second))
					if mt, resp := rc.recv(); mt != wire.MsgResult {
						t.Fatalf("traced apply answered with %v", mt)
					} else {
						fx.checkResult(t, resp)
					}
					fx.checkResult(t, rc.call(wire.MsgApply, wire.MsgResult, fx.applyPayload(d, 10*time.Second)))
					if got := rxTotal.Value() - rx0; got != rc.tx {
						t.Errorf("cham_server_bytes_rx_total moved by %d, the connection wrote %d bytes", got, rc.tx)
					}
					if got := txTotal.Value() - tx0; got != rc.rx {
						t.Errorf("cham_server_bytes_tx_total moved by %d, the connection read %d bytes", got, rc.rx)
					}
				})
			}

			t.Run("unknown message type", func(t *testing.T) {
				rc := dialRaw(t, d.addr)
				rc.hello(p)
				rc.send(wire.MsgType(200), []byte{1, 2, 3})
				rc.recvErr(wire.CodeBadRequest)
				rc.send(wire.MsgResult, nil) // a reply type is no request either
				rc.recvErr(wire.CodeBadRequest)
				rc.call(wire.MsgPing, wire.MsgPong, nil) // the connection stays usable
			})

			t.Run("retired message types", func(t *testing.T) {
				// 14 and 15 were the registry pull/push and its reply; 14
				// carries a well-formed pull of that protocol. Both are
				// refused like any unknown type.
				rc := dialRaw(t, d.addr)
				rc.hello(p)
				rc.send(wire.MsgType(14), make([]byte, 9))
				rc.recvErr(wire.CodeBadRequest)
				rc.send(wire.MsgType(15), make([]byte, 40))
				rc.recvErr(wire.CodeBadRequest)
				rc.call(wire.MsgPing, wire.MsgPong, nil) // the connection stays usable
			})

			// Tile lists are what a coordinator sends a shard: a server
			// serves them, a gateway serves whole applies only.
			if kind.name == "gateway" {
				t.Run("tile-listed apply", func(t *testing.T) {
					rc := dialRaw(t, d.addr)
					rc.hello(p)
					rc.send(wire.MsgApply, wire.EncodeApply(p.R, wire.Apply{
						ID: d.handle.ID, DeadlineMicros: 10e6, Tiles: []uint32{0, 2}, Vector: fx.ctV,
					}))
					rc.recvErr(wire.CodeBadRequest)
					rc.call(wire.MsgPing, wire.MsgPong, nil) // the connection stays usable
				})
			}

			t.Run("oversized frame", func(t *testing.T) {
				rc := dialRaw(t, d.addr)
				rc.hello(p)
				frame := wire.AppendFrame(nil, wire.MsgApply, 9, wire.TraceHeader{}, nil)
				binary.LittleEndian.PutUint32(frame[8:], maxFrame+1)
				if _, err := rc.c.Write(frame); err != nil {
					t.Fatal(err)
				}
				rc.closed()
				dialRaw(t, d.addr).call(wire.MsgPing, wire.MsgPong, nil) // the door itself is unharmed
			})

			t.Run("lying length", func(t *testing.T) {
				rc := dialRaw(t, d.addr)
				rc.hello(p)
				// The most the door accepts is claimed, 10 bytes follow, and
				// the sending side closes.
				frame := wire.AppendFrame(nil, wire.MsgApply, 9, wire.TraceHeader{}, make([]byte, 10))
				binary.LittleEndian.PutUint32(frame[8:], maxFrame)
				if _, err := rc.c.Write(frame); err != nil {
					t.Fatal(err)
				}
				if err := rc.c.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
				rc.closed()
				dialRaw(t, d.addr).call(wire.MsgPing, wire.MsgPong, nil)
			})

			t.Run("apply during drain", func(t *testing.T) {
				d := mk(t, doorOpts{jobDur: 300 * time.Millisecond})
				holder, late := dialRaw(t, d.addr), dialRaw(t, d.addr)
				holder.hello(p)
				late.hello(p)
				since := d.started()
				holder.send(wire.MsgApply, fx.applyPayload(d, 10*time.Second))
				d.waitStarted(t, since, 1)
				drained := make(chan error, 1)
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					drained <- d.shutdown(ctx)
				}()
				// Shutdown raises the barrier before it closes the listener, so a
				// refused dial means the barrier is up.
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					c, err := net.DialTimeout("tcp", d.addr, time.Second)
					if err != nil {
						break
					}
					c.Close()
					if time.Now().After(deadline) {
						t.Fatal("the door kept accepting connections after Shutdown")
					}
				}
				late.send(wire.MsgApply, fx.applyPayload(d, 10*time.Second))
				if we := late.recvErr(wire.CodeDraining); !we.Retryable() {
					t.Fatal("draining must be retryable (clients fail over)")
				}
				late.call(wire.MsgPing, wire.MsgPong, nil) // only compute requests are turned away
				mt, resp := holder.recv()
				if mt != wire.MsgResult {
					t.Fatalf("the apply admitted before the drain answered with %v", mt)
				}
				fx.checkResult(t, resp)
				if err := <-drained; err != nil {
					t.Fatalf("drain: %v", err)
				}
				if err := <-d.served; err != nil {
					t.Fatalf("serve: %v", err)
				}
				holder.closed()
			})

			t.Run("shutdown with a stalled client", func(t *testing.T) {
				d := mk(t, doorOpts{jobDur: 2 * time.Second})
				rc := dialRaw(t, d.addr)
				rc.hello(p)
				since := d.started()
				rc.send(wire.MsgApply, fx.applyPayload(d, 10*time.Second))
				d.waitStarted(t, since, 1)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				if err := d.shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Shutdown with a request still in flight returned %v, want the context's error", err)
				}
				if err := <-d.served; err != nil {
					t.Fatalf("serve: %v", err)
				}
				rc.closed()
				// Given the time, a second Shutdown sees the straggler out, so
				// the row leaves no work running behind it.
				ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := d.shutdown(ctx); err != nil {
					t.Fatalf("second Shutdown: %v", err)
				}
			})

			t.Run("drain race", func(t *testing.T) { fx.drainRace(t, mk) })
		})
	}
}

// drainRace floods a door with applies while Shutdown runs. Admission
// tests the draining flag and joins the request WaitGroup under the read
// side of a lock Shutdown takes to set it; without that order an apply
// that read "not draining" could join after Wait had seen zero and have
// its connection closed under a live request.
//
// First, the client's view: with one slow apply holding the drain open,
// every flooding apply that reaches the door during the drain gets
// either the bit-identical result or the typed draining rejection, never a
// transport error. Then the race itself, with nothing in flight when
// Shutdown starts: every apply the door took up must be answered — only
// applies it never admitted may find the door closed.
func (fx *doorFixture) drainRace(t *testing.T, mk func(*testing.T, doorOpts) *door) {
	type tally struct{ ok, draining, transport, started int }
	round := func(holdOpen bool, head time.Duration) tally {
		// Every card job takes 150 ms, so an admitted apply keeps the drain
		// open that long; holdOpen decides whether one is sent ahead.
		d := mk(t, doorOpts{jobDur: 150 * time.Millisecond})
		const flood = 6
		clients := make([]*client.Client, flood+1)
		for i := range clients {
			clients[i] = fx.dial(t, d)
			if _, err := clients[i].Hello(); err != nil { // connect now: the listener closes with the drain
				t.Fatal(err)
			}
		}
		since := d.started()
		errs := make(chan error, flood+1)
		apply := func(cl *client.Client) {
			got, err := cl.Apply(d.handle.ID, fx.ctV)
			if err == nil {
				for i := range got.Packed {
					if !sameCiphertext(got.Packed[i], fx.want.Packed[i]) {
						t.Errorf("tile %d of an apply answered during the drain differs from the in-process result", i)
					}
				}
			}
			errs <- err
		}
		sent := 0
		if holdOpen {
			go apply(clients[flood])
			sent++
			d.waitStarted(t, since, 1)
		}
		start := make(chan struct{})
		for i := 0; i < flood; i++ {
			go func(cl *client.Client) {
				<-start
				apply(cl)
			}(clients[i])
			sent++
		}
		drained := make(chan error, 1)
		go func() {
			<-start
			time.Sleep(head) // not synchronisation: it only moves where Shutdown lands in the flood
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			drained <- d.shutdown(ctx)
		}()
		close(start)

		var tl tally
		for i := 0; i < sent; i++ {
			err := <-errs
			var we *wire.Error
			switch {
			case err == nil:
				tl.ok++
			case errors.As(err, &we) && we.Code == wire.CodeDraining:
				tl.draining++
			case errors.As(err, &we):
				t.Errorf("apply racing the drain got an unexpected typed error: %v", err)
			default:
				tl.transport++
			}
		}
		if err := <-drained; err != nil {
			t.Fatalf("drain: %v", err)
		}
		if err := <-d.served; err != nil {
			t.Fatalf("serve: %v", err)
		}
		tl.started = int(d.started() - since)
		return tl
	}

	tl := round(true, 0)
	if tl.transport != 0 || tl.ok == 0 {
		t.Fatalf("drain held open: %+v — want every apply answered or typed-rejected, the holder at least answered", tl)
	}
	for i := 0; i < 8; i++ {
		// Shutdown starts 0 to 2.8 ms into the flood, so across the rounds it
		// lands before, among and after the applies' admissions.
		tl := round(false, time.Duration(i)*400*time.Microsecond)
		t.Logf("round %d: %+v", i, tl)
		if tl.started != tl.ok {
			t.Fatalf("round %d, nothing in flight at Shutdown: %+v — an admitted apply lost its connection", i, tl)
		}
	}
}

// TestGatewayHonoursDeadline: the caller's deadline travels client →
// gateway → coordinator → shard. Both shards' cards need over a second for
// their leg; an Apply carrying 100 ms gets the typed deadline rejection
// from the gateway as soon as the budget is spent, and the shards drop the
// legs — expired, or abandoned by the coordinator's hang-up — instead of
// serving them. The frame is written by hand so that the client library's
// own socket timeout cannot be what answers.
func TestGatewayHonoursDeadline(t *testing.T) {
	p := testParams(t, 32)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	keys, err := lwe.GenPackingKeys(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	fx := &doorFixture{p: p, keys: keys, A: testutil.Matrix(rng, 128, 32, p.T.Q)}
	fx.ctV = core.EncryptVector(p, rng, sk, testutil.Vector(rng, 32, p.T.Q))

	co, nodes := newCluster(t, p, 2, func(c *server.Config) {
		card, err := rt.New(rt.NewDevice(1, 2*time.Second, rt.FaultPlan{}))
		if err != nil {
			t.Fatal(err)
		}
		card.JobTimeout = 30 * time.Second
		c.Card = card
	}, nil)
	gw, err := NewGateway(GatewayConfig{Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	d := fx.open(t, &door{shutdown: gw.Shutdown}, &gw.FrontEnd)
	defer d.close(t)

	expired := obs.GetCounter("cham_server_rejects_total", "", "reason", "deadline")
	dropped0 := expired.Value() + counter("cham_server_abandoned_total")
	applies0 := counter("cham_server_applies_total")

	rc := dialRaw(t, d.addr)
	rc.hello(p)
	t0 := time.Now()
	rc.send(wire.MsgApply, fx.applyPayload(d, 100*time.Millisecond))
	rc.recvErr(wire.CodeDeadline)
	if took := time.Since(t0); took > 800*time.Millisecond {
		t.Errorf("the gateway answered after %v; the request carried a 100ms deadline and a leg takes over a second", took)
	}

	// Draining the shards retires everything they had admitted, so their
	// counters are final afterwards.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range nodes {
		if err := n.srv.Shutdown(ctx); err != nil {
			t.Fatalf("draining a shard: %v", err)
		}
	}
	if d := expired.Value() + counter("cham_server_abandoned_total") - dropped0; d == 0 {
		t.Error("neither cham_server_rejects_total{reason=deadline} nor cham_server_abandoned_total moved: the shards never learnt of the deadline")
	}
	if d := counter("cham_server_applies_total") - applies0; d != 0 {
		t.Errorf("cham_server_applies_total moved by %d: a shard served a leg nobody was waiting for", d)
	}
}
