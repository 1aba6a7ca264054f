package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cham/internal/obs"
	"cham/internal/obs/trace"
)

// maxReplays bounds how often a job is retried across resets/errors.
const maxReplays = 3

// Runtime is the application-facing layer: it owns the driver, schedules
// jobs across engines, and implements the remaining RAS features — hang
// detection with automatic reset and replay, and periodic health
// monitoring.
type Runtime struct {
	dr      *Driver
	engines int

	// JobTimeout bounds the card wait that follows a job's host work
	// before the watchdog declares a hang.
	JobTimeout time.Duration

	mu      sync.Mutex
	free    chan int // engine pool
	replays int
	resets  int
	gen     int // recovery generation; bumped on every reset

	// Heartbeat-age tracking for the health gauges.
	lastBeat     uint64
	lastBeatSeen time.Time

	// busy holds the per-engine busy-time counters, indexed by engine.
	busy []*obs.CounterF

	// op serializes recovery against in-flight jobs: jobs hold the read
	// side for their whole execution, recovery takes the write side, so a
	// reset never wipes a job mid-flight and replays run on a quiesced
	// card.
	op sync.RWMutex
}

// HealthSample is one record from the health monitor.
type HealthSample struct {
	When     time.Time
	Alive    bool
	TempC    float64
	JobsDone int
	Resets   int
}

// New initializes the runtime over a device.
func New(dev *Device) (*Runtime, error) {
	dr := NewDriver(dev)
	if !dr.Alive() {
		return nil, fmt.Errorf("runtime: no responsive CHAM card")
	}
	engines := int(dev.ReadReg(RegEngineCnt))
	if engines < 1 {
		return nil, fmt.Errorf("runtime: card reports no engines")
	}
	rt := &Runtime{
		dr:         dr,
		engines:    engines,
		JobTimeout: 50 * time.Millisecond,
		free:       make(chan int, engines),
		busy:       engineBusy(engines),
	}
	for e := 0; e < engines; e++ {
		rt.free <- e
	}
	return rt, nil
}

// Engines reports the engine count.
func (rt *Runtime) Engines() int { return rt.engines }

// Driver exposes the lower layer (for telemetry).
func (rt *Runtime) Driver() *Driver { return rt.dr }

// runJob is RunJob over raw configuration words: the retry loop around
// runOnce, with one trace span per attempt.
func (rt *Runtime) runJob(ctx context.Context, config []uint64, work func() error) error {
	tc := trace.FromContext(ctx)
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			mCtxAborts.Inc()
			return err
		}
		gen := rt.generation()
		// Each attempt is its own span, so RAS replays show up as sibling
		// jobs in the trace with the replay count annotated.
		_, jsp := trace.Start(tc, "runtime", "job")
		if attempt > 0 && jsp.Active() {
			jsp.Annotate(fmt.Sprintf("replay %d", attempt))
		}
		werr, err := rt.runOnce(ctx, config, work)
		if err == nil {
			// The card did its part: a failure of the work is the host's,
			// and a replay would repeat it.
			jsp.EndErr(werr)
			mJobsOK.Inc()
			return werr
		}
		jsp.EndErr(err)
		if ctx.Err() != nil {
			// The caller's deadline expired mid-job: not a card fault, so it
			// is not replayed and not counted against the RAS counters.
			mCtxAborts.Inc()
			return ctx.Err()
		}
		rt.mu.Lock()
		rt.replays++
		rt.mu.Unlock()
		mReplays.Inc()
		if attempt >= maxReplays {
			mJobsFailed.Inc()
			return fmt.Errorf("runtime: job failed after %d replays: %w", attempt, err)
		}
		rt.recoverIfStale(gen)
	}
}

func (rt *Runtime) generation() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.gen
}

// runOnce is one attempt: it holds an engine slot, and the read side of
// op, from the config load through work to the card's status, so a reset
// never lands inside a job's work. werr is work's error, err the card's
// (or the context's), so that only the card's is replayed.
func (rt *Runtime) runOnce(ctx context.Context, config []uint64, work func() error) (werr, err error) {
	rt.op.RLock()
	defer rt.op.RUnlock()
	var engine int
	select {
	case engine = <-rt.free:
	case <-ctx.Done():
		return nil, ctx.Err() // expired while queued: no engine, no work
	}
	defer func() { rt.free <- engine }()
	t0 := time.Now()
	defer func() { rt.busy[engine].Add(time.Since(t0).Seconds()) }()

	base := RegScratch + uint32(0x40*engine)
	for i, w := range config {
		if err := rt.dr.LoadConfig(base+uint32(8*i), w); err != nil {
			return nil, err
		}
	}
	if err := rt.dr.Submit(engine); err != nil {
		return nil, err
	}
	mSubmits.Inc()
	if work != nil {
		werr = work()
	}
	tw := time.Now()
	// The watchdog times the card alone, from the moment the work is done;
	// the wait is capped to the caller's remaining budget so an expired
	// request releases its engine at the deadline, not at the watchdog.
	wait := rt.JobTimeout
	capped := false
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < wait {
			wait = rem
			capped = true
		}
	}
	status, err := rt.dr.WaitJob(engine, wait)
	mWaitSec.Observe(time.Since(tw).Seconds())
	if err != nil {
		if capped && errors.Is(err, ErrWaitTimeout) {
			// The wait was cut short by the caller's deadline, not the
			// watchdog: surface the context error (the deadline may lag the
			// capped wait by a scheduling quantum, so block on it) and don't
			// charge the card with a fault.
			<-ctx.Done()
			return werr, ctx.Err()
		}
		return werr, err
	}
	if status != JobDone {
		// JobError, or JobIdle after a concurrent reset wiped the engine:
		// either way the job did not complete and must be replayed.
		return werr, fmt.Errorf("runtime: engine %d finished with status %d", engine, status)
	}
	return werr, nil
}

// recoverIfStale resets the card unless another goroutine already
// recovered since the caller observed generation gen. The exclusive op
// lock guarantees no job is in flight during the reset.
func (rt *Runtime) recoverIfStale(gen int) {
	rt.op.Lock()
	defer rt.op.Unlock()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.gen != gen {
		return // a newer recovery already happened
	}
	rt.dr.Reset()
	rt.gen++
	rt.resets++
	mResets.Inc()
}

// Replays and Resets report RAS counters.
func (rt *Runtime) Replays() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.replays
}

func (rt *Runtime) Resets() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.resets
}

// HealthCheck samples liveness (heartbeat must advance), temperature and
// counters; it performs a recovery reset on a detected hang and reports
// the (post-recovery) state.
func (rt *Runtime) HealthCheck() HealthSample {
	gen := rt.generation()
	h1 := rt.dr.Heartbeat()
	h2 := rt.dr.Heartbeat()
	alive := h2 != h1 && h2 != ^uint64(0)
	if !alive {
		rt.recoverIfStale(gen)
	}
	temp := rt.dr.Temperature()
	jobs, resets := rt.deviceStats()
	now := time.Now()
	s := HealthSample{
		When:     now,
		Alive:    alive,
		TempC:    temp,
		JobsDone: jobs,
		Resets:   resets,
	}
	rt.mu.Lock()
	if h2 != rt.lastBeat || rt.lastBeatSeen.IsZero() {
		rt.lastBeat = h2
		rt.lastBeatSeen = now
	}
	age := now.Sub(rt.lastBeatSeen).Seconds()
	rt.mu.Unlock()
	mTempC.Set(temp)
	if alive {
		mAlive.Set(1)
	} else {
		mAlive.Set(0)
	}
	mHeartbeatAge.Set(age)
	return s
}

func (rt *Runtime) deviceStats() (int, int) {
	return rt.dr.dev.Stats()
}
