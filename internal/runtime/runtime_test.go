package runtime

import (
	"context"
	"errors"
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
		if err := rt.RunJobCtx(context.Background(), []uint64{1, 2, 3}); err != nil {
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
		if err := rt.RunJobCtx(context.Background(), []uint64{7, 8, 9, 10}); err != nil {
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
		if err := rt.RunJobCtx(context.Background(), []uint64{1}); err != nil {
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
// ones surface after MaxReplays.
func TestJobErrorReplay(t *testing.T) {
	dev := NewDevice(1, jobDur, FaultPlan{FailJobEvery: 4})
	rt, _ := New(dev)
	for i := 0; i < 6; i++ {
		if err := rt.RunJobCtx(context.Background(), []uint64{1}); err != nil {
			t.Fatalf("job %d not recovered: %v", i, err)
		}
	}
	if rt.Replays() == 0 {
		t.Error("no replays recorded")
	}
	// Persistent failure: every job errors.
	devBad := NewDevice(1, jobDur, FaultPlan{FailJobEvery: 1})
	rtBad, _ := New(devBad)
	if err := rtBad.RunJobCtx(context.Background(), []uint64{1}); err == nil {
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
	_ = rtHang.RunJobCtx(context.Background(), []uint64{1}) // triggers the hang (replayed fine)
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
	if err := rtHot.RunJobCtx(context.Background(), []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if s := rtHot.HealthCheck(); s.TempC < 85 {
		t.Errorf("overheated card sampled at %.1f °C", s.TempC)
	}
	if len(rtHot.History()) != 1 {
		t.Error("history not recorded")
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
			errs <- rt.RunJobCtx(context.Background(), []uint64{42})
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
			errs <- rt.RunJobCtx(context.Background(), []uint64{1})
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

// TestHistoryIsACopy: mutating a returned History slice must not bleed
// into the runtime's internal log, and History must be safe to call
// while other goroutines append samples and run jobs (run with -race).
func TestHistoryIsACopy(t *testing.T) {
	rt := healthyRuntime(t, 2)
	rt.HealthCheck()
	h := rt.History()
	if len(h) != 1 {
		t.Fatalf("history length %d, want 1", len(h))
	}
	h[0].TempC = -273
	if got := rt.History()[0].TempC; got == -273 {
		t.Error("History returned internal storage, not a copy")
	}

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
					_ = rt.RunJobCtx(context.Background(), []uint64{7})
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		for _, s := range rt.History() {
			_ = s.TempC // read every field the writers touch
		}
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
	if err := rt.RunJobCtx(ctx, []uint64{1}); !errors.Is(err, context.Canceled) {
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
		firstDone <- rt.RunJobCtx(context.Background(), []uint64{1})
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
	err = rt.RunJobCtx(ctx, []uint64{2})
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
	if err := rt.RunJobCtx(ctx, []uint64{1}); !errors.Is(err, context.DeadlineExceeded) {
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

// TestRowLatencyModel: with the descriptor-aware latency model on, a job
// over twice the rows takes measurably longer, and a half-size job
// finishes faster than a full-size one — the property that makes sharded
// serving throughput honest in the cluster benchmarks.
func TestRowLatencyModel(t *testing.T) {
	dev := NewDevice(1, jobDur, FaultPlan{})
	dev.SetRowLatency(0, 50*time.Microsecond)
	rt, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rows uint32) time.Duration {
		d := &HMVPDescriptor{
			Rows: rows, Cols: 64,
			MatrixAddr: 0x1000, VectorAddr: 0x2000, KeyAddr: 0x3000, ResultAddr: 0x4000,
			PackRowsLog2: 6,
		}
		t0 := time.Now()
		if err := rt.RunHMVP(d); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	small, large := run(10), run(200)
	// 10 rows ≈ 0.5ms, 200 rows ≈ 10ms of simulated card time. Timer
	// granularity is far below the 9.5ms gap, so the ordering is robust.
	if large < small+5*time.Millisecond {
		t.Errorf("row latency model not applied: 10 rows took %v, 200 rows took %v", small, large)
	}

	// perRow=0 restores the flat model.
	dev.SetRowLatency(0, 0)
	flat := run(200)
	if flat > small+5*time.Millisecond && flat > 2*jobDur+5*time.Millisecond {
		t.Errorf("flat model not restored: 200-row job took %v", flat)
	}
}
