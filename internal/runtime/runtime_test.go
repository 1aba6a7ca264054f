package runtime

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

const jobDur = 200 * time.Microsecond

func healthyRuntime(t *testing.T, engines int) *Runtime {
	t.Helper()
	rt, err := New(NewDevice(engines, jobDur, FaultPlan{}))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestParitySealing(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xDEADBEEF, 1<<63 - 1} {
		w, err := sealWord(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkWord(w)
		if err != nil || got != v {
			t.Fatalf("seal/check round trip failed for %x", v)
		}
		// Any single bit flip must be detected... parity catches odd flips.
		if _, err := checkWord(w ^ 1); err == nil {
			t.Fatalf("flipped word accepted for %x", v)
		}
	}
	if _, err := sealWord(1 << 63); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestNewValidation(t *testing.T) {
	dev := NewDevice(2, jobDur, FaultPlan{})
	dev.WriteReg(RegMagic, 0) // corrupt the magic
	if _, err := New(dev); err == nil {
		t.Error("unresponsive card accepted")
	}
	dev2 := NewDevice(0, jobDur, FaultPlan{})
	if _, err := New(dev2); err == nil {
		t.Error("engine-less card accepted")
	}
}

func TestRunJobHappyPath(t *testing.T) {
	rt := healthyRuntime(t, 2)
	for i := 0; i < 10; i++ {
		if err := rt.runJob(context.Background(), []uint64{1, 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	jobs, resets := rt.dr.dev.Stats()
	if jobs != 10 || resets != 0 {
		t.Errorf("jobs=%d resets=%d", jobs, resets)
	}
	if rt.Replays() != 0 {
		t.Errorf("unexpected replays: %d", rt.Replays())
	}
}

// TestRegisterCorruptionRecovered: the paper's "register loading error
// handling" — corrupted loads are caught by read-back and retried.
func TestRegisterCorruptionRecovered(t *testing.T) {
	dev := NewDevice(1, jobDur, FaultPlan{CorruptWriteEvery: 5})
	rt, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := rt.runJob(context.Background(), []uint64{7, 8, 9, 10}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if rt.dr.RecoveredWrites() == 0 {
		t.Error("no writes recovered despite injected corruption")
	}
}

// TestHangResetReplay: the paper's "FPGA hang/reset" — a hung card is
// detected by the watchdog timeout, reset, and the job replayed.
func TestHangResetReplay(t *testing.T) {
	dev := NewDevice(2, jobDur, FaultPlan{HangAfterJobs: 3})
	rt, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	rt.JobTimeout = 5 * time.Millisecond
	for i := 0; i < 8; i++ {
		if err := rt.runJob(context.Background(), []uint64{1}, nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if rt.Resets() == 0 {
		t.Error("hang did not trigger a reset")
	}
	if rt.Replays() == 0 {
		t.Error("hang did not trigger a replay")
	}
	if _, resets := dev.Stats(); resets == 0 {
		t.Error("device never reset")
	}
}

// TestJobErrorReplay: transient engine errors are retried; persistent
// ones surface after the last replay.
func TestJobErrorReplay(t *testing.T) {
	dev := NewDevice(1, jobDur, FaultPlan{FailJobEvery: 4})
	rt, _ := New(dev)
	for i := 0; i < 6; i++ {
		if err := rt.runJob(context.Background(), []uint64{1}, nil); err != nil {
			t.Fatalf("job %d not recovered: %v", i, err)
		}
	}
	if rt.Replays() == 0 {
		t.Error("no replays recorded")
	}
	// Persistent failure: every job errors.
	devBad := NewDevice(1, jobDur, FaultPlan{FailJobEvery: 1})
	rtBad, _ := New(devBad)
	if err := rtBad.runJob(context.Background(), []uint64{1}, nil); err == nil {
		t.Error("persistently failing job reported success")
	}
}

// TestHealthMonitoring: heartbeat advances on a live card; a hang is
// detected and recovered; an overheated die samples above its 85 °C trip.
func TestHealthMonitoring(t *testing.T) {
	rt := healthyRuntime(t, 1)
	s := rt.HealthCheck()
	if !s.Alive || s.TempC < 20 || s.TempC > 60 {
		t.Errorf("healthy card sampled as %+v", s)
	}

	// Hang: heartbeat freezes; the check recovers via reset.
	devHang := NewDevice(1, jobDur, FaultPlan{HangAfterJobs: 1})
	rtHang, _ := New(devHang)
	rtHang.JobTimeout = 5 * time.Millisecond
	_ = rtHang.runJob(context.Background(), []uint64{1}, nil) // triggers the hang (replayed fine)
	sample := rtHang.HealthCheck()
	_ = sample
	if rtHang.Resets() == 0 {
		t.Error("health check/watchdog never reset the hung card")
	}
	// After recovery the card must respond again.
	if !rtHang.Driver().Alive() {
		t.Error("card not alive after recovery")
	}

	// Overheat: the sample reads the die past the trip point.
	devHot := NewDevice(1, jobDur, FaultPlan{OverheatAfterJobs: 1})
	rtHot, _ := New(devHot)
	if err := rtHot.runJob(context.Background(), []uint64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if s := rtHot.HealthCheck(); s.TempC < 85 || s.JobsDone != 1 || s.When.IsZero() {
		t.Errorf("overheated card sampled as %+v, want ≥ 85 °C after 1 job", s)
	}
}

// TestConcurrentSubmitters: many goroutines share the engine pool without
// losing jobs.
func TestConcurrentSubmitters(t *testing.T) {
	rt := healthyRuntime(t, 2)
	const jobs = 24
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- rt.runJob(context.Background(), []uint64{42}, nil)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	done, _ := rt.dr.dev.Stats()
	if done != jobs {
		t.Errorf("device completed %d jobs, want %d", done, jobs)
	}
}

// TestConcurrentWithHang: recovery under concurrent load still completes
// every job.
func TestConcurrentWithHang(t *testing.T) {
	dev := NewDevice(2, jobDur, FaultPlan{HangAfterJobs: 5})
	rt, _ := New(dev)
	rt.JobTimeout = 5 * time.Millisecond
	const jobs = 16
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- rt.runJob(context.Background(), []uint64{1}, nil)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeviceDoorbellEdgeCases(t *testing.T) {
	dev := NewDevice(1, jobDur, FaultPlan{})
	dr := NewDriver(dev)
	if err := dr.Submit(99); err == nil { // bogus engine: never starts
		t.Error("bogus doorbell reported success")
	}
	if s := dr.Status(0); s != JobIdle {
		t.Errorf("status %d after bogus doorbell", s)
	}
	if err := dr.Submit(0); err != nil {
		t.Fatal(err)
	}
	_ = dr.Submit(0) // doorbell on busy engine is harmless
	if s, err := dr.WaitJob(0, 50*time.Millisecond); err != nil || s != JobDone {
		t.Errorf("status %d err %v", s, err)
	}
}

// TestHealthCheckConcurrent: HealthCheck is safe to call while other
// goroutines sample and run jobs (run with -race), and the samples one
// caller takes never see the card's job count go backwards.
func TestHealthCheckConcurrent(t *testing.T) {
	rt := healthyRuntime(t, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rt.HealthCheck()
					_ = rt.runJob(context.Background(), []uint64{7}, nil)
				}
			}
		}()
	}
	last := 0
	for i := 0; i < 50; i++ {
		s := rt.HealthCheck()
		if s.JobsDone < last {
			t.Fatalf("sample %d reads %d jobs done, an earlier one read %d", i, s.JobsDone, last)
		}
		last = s.JobsDone
		_ = rt.Replays()
		_ = rt.Resets()
	}
	close(stop)
	wg.Wait()
}

func TestRunJobCtxCanceledBeforeStart(t *testing.T) {
	rt := healthyRuntime(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.runJob(ctx, []uint64{1}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if jobs, _ := rt.dr.dev.Stats(); jobs != 0 {
		t.Fatalf("canceled job still ran (%d jobs)", jobs)
	}
	if rt.Replays() != 0 {
		t.Fatalf("context abort counted as replay")
	}
}

func TestRunJobCtxAbortsWhileQueued(t *testing.T) {
	// One slow engine: the first job occupies it, the second must abort at
	// its deadline while still waiting for the slot — it never occupies an
	// engine and never executes on the device.
	dev := NewDevice(1, 50*time.Millisecond, FaultPlan{})
	rt, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	rt.JobTimeout = time.Second

	started := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		close(started)
		firstDone <- rt.runJob(context.Background(), []uint64{1}, nil)
	}()
	<-started
	// Give the first job time to claim the engine.
	deadline := time.Now().Add(time.Second)
	for {
		if len(rt.free) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never claimed the engine")
		}
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err = rt.runJob(ctx, []uint64{2}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if waited := time.Since(t0); waited > 40*time.Millisecond {
		t.Fatalf("queued abort took %v, should return at the deadline", waited)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("first job: %v", err)
	}
	if jobs, _ := dev.Stats(); jobs != 1 {
		t.Fatalf("device ran %d jobs, want 1 (aborted job must not execute)", jobs)
	}
}

func TestRunJobCtxDeadlineCapsHardwareWait(t *testing.T) {
	// The job takes 50 ms but the context allows 5 ms: the wait must stop
	// at the context deadline, not the 1 s watchdog, and surface ctx.Err().
	dev := NewDevice(1, 50*time.Millisecond, FaultPlan{})
	rt, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	rt.JobTimeout = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if err := rt.runJob(ctx, []uint64{1}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if waited := time.Since(t0); waited > 40*time.Millisecond {
		t.Fatalf("deadline-capped wait took %v", waited)
	}
	if rt.Replays() != 0 {
		t.Fatalf("context abort was replayed %d times", rt.Replays())
	}
}

func TestRunHMVPCtx(t *testing.T) {
	rt := healthyRuntime(t, 2)
	d := &HMVPDescriptor{
		Rows: 16, Cols: 64,
		MatrixAddr: 0x1000, VectorAddr: 0x2000, KeyAddr: 0x3000, ResultAddr: 0x4000,
		PackRowsLog2: 4,
	}
	if err := rt.RunHMVPCtx(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.RunHMVPCtx(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestWaitJobWakeUps: WaitJob returns when the device moves the engine
// out of JobRunning — not on a poll — and reads the status register as
// it stands then.
func TestWaitJobWakeUps(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		dr := NewDriver(NewDevice(1, time.Millisecond, FaultPlan{}))
		if err := dr.Submit(0); err != nil {
			t.Fatal(err)
		}
		if s, err := dr.WaitJob(0, 10*time.Second); err != nil || s != JobDone {
			t.Fatalf("status %d err %v, want JobDone", s, err)
		}
	})
	t.Run("idle after reset", func(t *testing.T) {
		dev := NewDevice(1, 10*time.Second, FaultPlan{})
		dr := NewDriver(dev)
		if err := dr.Submit(0); err != nil {
			t.Fatal(err)
		}
		time.AfterFunc(5*time.Millisecond, dev.Reset)
		t0 := time.Now()
		if s, err := dr.WaitJob(0, 10*time.Second); err != nil || s != JobIdle {
			t.Fatalf("status %d err %v, want JobIdle", s, err)
		}
		if took := time.Since(t0); took > time.Second {
			t.Fatalf("the reset woke the waiter after %v", took)
		}
	})
	t.Run("all-ones after a hang", func(t *testing.T) {
		// Engine 0's job is the one that hangs the card; engine 1's waiter
		// must see the hang then, not at its own job's end or its timeout.
		dev := NewDevice(2, 50*time.Millisecond, FaultPlan{HangAfterJobs: 1})
		defer dev.Reset()
		dr := NewDriver(dev)
		if err := dr.Submit(0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
		if err := dr.Submit(1); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		_, err := dr.WaitJob(1, 10*time.Second)
		if err == nil || !strings.Contains(err.Error(), "all-ones") {
			t.Fatalf("waiter on a hung card got %v, want the all-ones error", err)
		}
		if took := time.Since(t0); took > time.Second {
			t.Fatalf("the hang woke the waiter after %v", took)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		dev := NewDevice(1, 10*time.Second, FaultPlan{})
		defer dev.Reset()
		dr := NewDriver(dev)
		if err := dr.Submit(0); err != nil {
			t.Fatal(err)
		}
		if _, err := dr.WaitJob(0, 5*time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
			t.Fatalf("want ErrWaitTimeout, got %v", err)
		}
	})
}

// TestRunJobWork is the contract of a job that carries host work: the
// work runs while the job holds its engine, a card fault replays it, and
// the watchdog times the card alone.
func TestRunJobWork(t *testing.T) {
	d := validDescriptor()
	counting := func(runs *int, dur time.Duration) func() error {
		return func() error {
			*runs++
			time.Sleep(dur)
			return nil
		}
	}
	t.Run("work outlasts the watchdog", func(t *testing.T) {
		rt := healthyRuntime(t, 1)
		rt.JobTimeout = 10 * time.Millisecond
		runs := 0
		if err := rt.RunJob(context.Background(), d, counting(&runs, 3*rt.JobTimeout)); err != nil {
			t.Fatal(err)
		}
		if runs != 1 || rt.Replays() != 0 {
			t.Fatalf("work ran %d times with %d replays, want 1 and 0", runs, rt.Replays())
		}
	})
	t.Run("failed job reruns the work", func(t *testing.T) {
		rt, err := New(NewDevice(1, jobDur, FaultPlan{FailJobEvery: 2}))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RunHMVPCtx(context.Background(), d); err != nil { // job 1 of 2
			t.Fatal(err)
		}
		runs := 0
		if err := rt.RunJob(context.Background(), d, counting(&runs, 0)); err != nil {
			t.Fatal(err)
		}
		if runs != 2 || rt.Replays() != 1 {
			t.Fatalf("work ran %d times with %d replays, want 2 and 1", runs, rt.Replays())
		}
	})
	t.Run("hung card is reset and the work rerun", func(t *testing.T) {
		rt, err := New(NewDevice(1, jobDur, FaultPlan{HangAfterJobs: 1}))
		if err != nil {
			t.Fatal(err)
		}
		runs := 0
		if err := rt.RunJob(context.Background(), d, counting(&runs, 0)); err != nil {
			t.Fatal(err)
		}
		if runs != 2 || rt.Resets() != 1 {
			t.Fatalf("work ran %d times with %d resets, want 2 and 1", runs, rt.Resets())
		}
	})
	t.Run("context expires while queued", func(t *testing.T) {
		rt := healthyRuntime(t, 1)
		release, held := make(chan struct{}), make(chan struct{})
		first := make(chan error, 1)
		go func() {
			first <- rt.RunJob(context.Background(), d, func() error {
				close(held)
				<-release
				return nil
			})
		}()
		<-held
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		runs := 0
		if err := rt.RunJob(ctx, d, counting(&runs, 0)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
		close(release)
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if runs != 0 || rt.Replays() != 0 {
			t.Fatalf("queued job's work ran %d times with %d replays, want 0 and 0", runs, rt.Replays())
		}
	})
	t.Run("work error is not replayed", func(t *testing.T) {
		rt := healthyRuntime(t, 1)
		boom := errors.New("host work failed")
		runs := 0
		err := rt.RunJob(context.Background(), d, func() error { runs++; return boom })
		if !errors.Is(err, boom) || runs != 1 || rt.Replays() != 0 {
			t.Fatalf("got %v after %d runs and %d replays, want the work's error, 1 run, 0 replays", err, runs, rt.Replays())
		}
	})
}
