package client

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBackoffEqualJitterBounds: for every attempt i the delay must lie in
// [d/2, d) with d = min(backoffBase<<i, backoffMax) — the equal-jitter
// contract — under the default jitter source.
func TestBackoffEqualJitterBounds(t *testing.T) {
	cfg, err := Config{Addr: "127.0.0.1:1", Params: testParams(t, 32)}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{cfg: cfg}
	for i := 0; i < 12; i++ {
		d := backoffBase << uint(i)
		if d > backoffMax || d <= 0 {
			d = backoffMax
		}
		for trial := 0; trial < 64; trial++ {
			got := cl.backoff(i)
			if got < d/2 || got >= d {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", i, got, d/2, d)
			}
		}
	}

	// The jitter endpoints map onto the interval bounds exactly.
	cl.cfg.Jitter = func() float64 { return 0 }
	if got := cl.backoff(0); got != backoffBase/2 {
		t.Errorf("zero jitter: backoff %v, want %v", got, backoffBase/2)
	}
	cl.cfg.Jitter = func() float64 { return 0.999999 }
	if got := cl.backoff(11); got >= backoffMax {
		t.Errorf("max jitter: backoff %v reached the open bound %v", got, backoffMax)
	}
}

// always is the unbudgeted hedge policy: every expired delay may hedge.
func always() bool { return true }

// TestHedgedFirstSuccessWins: a healthy primary answers before the hedge
// delay, so exactly one attempt launches.
func TestHedgedFirstSuccessWins(t *testing.T) {
	v, winner, launched, err := Hedged(context.Background(), 3, time.Hour, always, func(_ context.Context, i int) (int, error) {
		return 40 + i, nil
	})
	if err != nil || v != 40 || winner != 0 || launched != 1 {
		t.Fatalf("got (%d, %d, %d, %v), want (40, 0, 1, nil)", v, winner, launched, err)
	}
}

// TestHedgedFailoverOnError: a hard failure hedges immediately without
// waiting out the delay — and without asking the budget, which here
// refuses everything.
func TestHedgedFailoverOnError(t *testing.T) {
	start := time.Now()
	deny := func() bool { t.Error("a hard failure consulted the hedge budget"); return false }
	v, winner, launched, err := Hedged(context.Background(), 3, time.Hour, deny, func(_ context.Context, i int) (string, error) {
		if i < 2 {
			return "", fmt.Errorf("replica %d down", i)
		}
		return "ok", nil
	})
	if err != nil || v != "ok" || winner != 2 || launched != 3 {
		t.Fatalf("got (%q, %d, %d, %v), want (ok, 2, 3, nil)", v, winner, launched, err)
	}
	if time.Since(start) > time.Minute {
		t.Fatal("failure hedging waited for the delay")
	}
}

// TestHedgedStraggler: a hung primary is raced by the hedge after the
// delay, the hedge's answer wins, and the straggler's context is cancelled
// the moment the winner returns — the loser is told to stop, not left to
// run to completion.
func TestHedgedStraggler(t *testing.T) {
	loser := make(chan error, 1)
	v, winner, launched, err := Hedged(context.Background(), 2, time.Millisecond, always, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-ctx.Done() // straggler: answers only when told to give up
			loser <- ctx.Err()
			return 0, ctx.Err()
		}
		return 7, nil
	})
	if err != nil || v != 7 || winner != 1 || launched != 2 {
		t.Fatalf("got (%d, %d, %d, %v), want (7, 1, 2, nil)", v, winner, launched, err)
	}
	select {
	case lerr := <-loser:
		if !errors.Is(lerr, context.Canceled) {
			t.Fatalf("loser's context ended with %v, want context.Canceled", lerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the losing attempt's context was never cancelled")
	}
}

// TestHedgedBudgetDenied: with the budget empty, an expired delay launches
// nothing — the call keeps waiting on the attempt it has and asks again a
// delay later; once the budget grants a token the hedge goes out.
func TestHedgedBudgetDenied(t *testing.T) {
	asked := 0
	spend := func() bool { asked++; return asked > 3 } // Hedged calls spend from one goroutine
	v, winner, launched, err := Hedged(context.Background(), 2, time.Millisecond, spend, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 9, nil
	})
	if err != nil || v != 9 || winner != 1 || launched != 2 {
		t.Fatalf("got (%d, %d, %d, %v), want (9, 1, 2, nil)", v, winner, launched, err)
	}
	if asked != 4 {
		t.Fatalf("budget consulted %d times, want 4 (three refusals, one grant)", asked)
	}
}

// TestHedgedParentContextEnds: when the caller's context ends with every
// attempt still pending, Hedged returns ctx.Err() and the attempts see the
// cancellation.
func TestHedgedParentContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	_, winner, launched, err := Hedged(ctx, 2, time.Hour, always, func(ctx context.Context, i int) (int, error) {
		close(started)
		<-ctx.Done()
		close(stopped)
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || winner != -1 || launched != 1 {
		t.Fatalf("got (%d, %d, %v), want (-1, 1, context.Canceled)", winner, launched, err)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the pending attempt never saw the cancellation")
	}
}

// TestHedgedAllFail: when every attempt fails the last error surfaces and
// the launch count covers all n.
func TestHedgedAllFail(t *testing.T) {
	boom := errors.New("boom")
	_, winner, launched, err := Hedged(context.Background(), 3, time.Millisecond, always, func(_ context.Context, i int) (int, error) {
		return 0, fmt.Errorf("attempt %d: %w", i, boom)
	})
	if !errors.Is(err, boom) || winner != -1 || launched != 3 {
		t.Fatalf("got (%d, %d, %v), want (-1, 3, wrapping boom)", winner, launched, err)
	}
	if _, _, _, err := Hedged(context.Background(), 0, 0, always, func(context.Context, int) (int, error) { return 0, nil }); !errors.Is(err, ErrNoAttempts) {
		t.Fatalf("n=0: got %v, want ErrNoAttempts", err)
	}
}
