package client

// Hedged requests: the straggler defence of the cluster tier. A scatter
// leg races up to n attempts at different replicas — the next attempt
// launches when the previous one fails outright or when the hedge delay
// expires with no answer (and the caller's budget allows it), and the
// first success wins. Because HMVP applies are pure compute with no
// server-side effects, duplicate execution is always safe; hedging trades
// a bounded amount of redundant work for a tight tail (The Tail at Scale's
// classic trade). The losers are cancelled the moment a winner returns,
// so the redundant work stops there instead of running to completion.

import (
	"context"
	"errors"
	"time"
)

// ErrNoAttempts is returned by Hedged when n < 1.
var ErrNoAttempts = errors.New("client: hedged call with no attempts")

type hedgeOutcome[T any] struct {
	idx int
	val T
	err error
}

// Hedged runs try(ctx, 0..n-1) with staggered starts: attempt i+1 launches
// as soon as attempt i fails, or after delay with attempt i still pending
// — the latter only if spend grants it; a denied hedge keeps waiting on
// the outstanding attempts and asks again one delay later (spend is only
// ever called from the goroutine that called Hedged). The first
// success wins; its value, the winning attempt index, and the number of
// attempts actually launched come back. When every launched attempt fails
// the last error is returned; when ctx ends first, ctx.Err(). Every
// attempt runs under a child of ctx that is cancelled when Hedged returns,
// so try must honour its context to stop a losing attempt early.
func Hedged[T any](ctx context.Context, n int, delay time.Duration, spend func() bool,
	try func(ctx context.Context, i int) (T, error)) (T, int, int, error) {
	var zero T
	if n < 1 {
		return zero, -1, 0, ErrNoAttempts
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the losers
	ch := make(chan hedgeOutcome[T], n)
	launched := 0
	launch := func() {
		i := launched
		launched++
		go func() {
			v, err := try(ctx, i)
			ch <- hedgeOutcome[T]{i, v, err}
		}()
	}
	launch()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var lastErr error
	for done := 0; done < launched; {
		var expired <-chan time.Time
		if launched < n {
			expired = timer.C
		}
		select {
		case out := <-ch:
			done++
			if out.err == nil {
				return out.val, out.idx, launched, nil
			}
			lastErr = out.err
			if err := ctx.Err(); err != nil {
				return zero, -1, launched, err // the caller gave up; an attempt noticing first is not a failure to hedge
			}
			if launched < n {
				launch() // a hard failure hedges immediately, unbudgeted
				rearm(timer, delay)
			}
		case <-expired:
			if spend() {
				launch() // a straggler hedges after the delay
			}
			timer.Reset(delay)
		case <-ctx.Done():
			return zero, -1, launched, ctx.Err()
		}
	}
	return zero, -1, launched, lastErr
}

// rearm restarts a timer that may have fired unobserved (go.mod predates
// the Go 1.23 timer semantics, so a stale tick has to be drained by hand).
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}
