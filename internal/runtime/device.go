// Package runtime implements the software stack of CHAM's heterogeneous
// system (§III-C): a driver for a (simulated) CHAM FPGA card and a
// runtime that provides job submission on top, with the paper's
// reliability/availability/serviceability (RAS) features — register
// loading error handling, hang detection with reset, and health
// monitoring.
//
// The device is a software stand-in: a register file with parity,
// per-engine jobs that stay running for a flat configured duration from
// the doorbell, and a fault-injection plan that tests use to exercise
// every recovery path. The work a job stands for is the host's: the
// runtime runs it while the job holds its engine slot (Runtime.RunJob).
package runtime

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Register map of the simulated card.
const (
	RegMagic     uint32 = 0x0000 // reads back MagicValue when alive
	RegVersion   uint32 = 0x0004
	RegEngineCnt uint32 = 0x0008
	RegTempMilli uint32 = 0x000C // die temperature, milli-degrees C
	RegHeartbeat uint32 = 0x0010 // increments while the card is alive
	RegDoorbell  uint32 = 0x0020 // write engine id to start its job
	RegJobStatus uint32 = 0x0030 // per-engine status base (one word each)
	RegScratch   uint32 = 0x0100 // start of the loadable configuration
)

// MagicValue identifies a responsive CHAM card.
const MagicValue = 0xC4A30001

// Job statuses stored at RegJobStatus + engine.
const (
	JobIdle uint64 = iota
	JobRunning
	JobDone
	JobError
)

// FaultPlan injects failures; zero value = healthy card.
type FaultPlan struct {
	// CorruptWriteEvery flips a bit on every k-th register write (the
	// "register loading error" the driver must catch by read-back).
	CorruptWriteEvery int
	// HangAfterJobs makes the card stop responding after n completed
	// jobs, until reset.
	HangAfterJobs int
	// FailJobEvery marks every k-th job as JobError.
	FailJobEvery int
	// OverheatAfterJobs drives the temperature register past the trip
	// point after n jobs.
	OverheatAfterJobs int
}

// Device simulates one CHAM card.
type Device struct {
	mu        sync.Mutex
	regs      map[uint32]uint64
	engines   int
	hung      bool
	writes    int
	jobsDone  int
	resets    int
	faults    FaultPlan
	jobDur    time.Duration // simulated per-job latency (flat model)
	pending   map[int]engineJob
	heartbeat uint64
}

// engineJob is one running job: when it is due, and the channel closed
// when its engine leaves JobRunning, made for the first waiter.
type engineJob struct {
	due  time.Time
	done chan struct{}
}

// NewDevice creates a card with the given engine count and simulated
// per-job duration (tests use microseconds; a real HMVP takes ~100 ms).
func NewDevice(engines int, jobDur time.Duration, faults FaultPlan) *Device {
	d := &Device{
		regs:    map[uint32]uint64{},
		engines: engines,
		faults:  faults,
		jobDur:  jobDur,
		pending: map[int]engineJob{},
	}
	d.powerOn()
	return d
}

func (d *Device) powerOn() {
	d.regs[RegMagic] = MagicValue
	d.regs[RegVersion] = 0x0203 // "v2.3", the VU9P production build
	d.regs[RegEngineCnt] = uint64(d.engines)
	d.regs[RegTempMilli] = 45000
	for e := 0; e < d.engines; e++ {
		d.regs[RegJobStatus+uint32(4*e)] = JobIdle
	}
}

// WriteReg writes a register, possibly corrupted per the fault plan.
// The driver must verify by read-back.
func (d *Device) WriteReg(addr uint32, v uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hung {
		return // writes vanish while hung
	}
	d.writes++
	if k := d.faults.CorruptWriteEvery; k > 0 && d.writes%k == 0 {
		v ^= 1 << (uint(d.writes) % 63) // flip a bit
	}
	d.regs[addr] = v
	if addr == RegDoorbell {
		d.startJob(int(v))
	}
}

// ReadReg reads a register; a hung card returns all-ones (the PCIe
// timeout pattern a real host observes).
func (d *Device) ReadReg(addr uint32) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hung {
		return ^uint64(0)
	}
	if addr == RegHeartbeat {
		d.heartbeat++
		return d.heartbeat
	}
	return d.regs[addr]
}

// startJob begins executing on an engine (caller holds the lock).
func (d *Device) startJob(engine int) {
	if engine < 0 || engine >= d.engines {
		return
	}
	statusAddr := RegJobStatus + uint32(4*engine)
	if d.regs[statusAddr] == JobRunning {
		return // doorbell on a busy engine is ignored
	}
	d.regs[statusAddr] = JobRunning
	d.pending[engine] = engineJob{due: time.Now().Add(d.jobDur)}
	time.AfterFunc(d.jobDur, func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.finishDue(engine)
	})
}

// jobDone returns the channel closed when engine leaves JobRunning — its
// job finished, the card was reset or the card hung — or nil when no job
// runs there. A job already due finishes here: its timer may not have run
// yet while the host's work kept every thread busy.
func (d *Device) jobDone(engine int) chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.finishDue(engine)
	if j, ok := d.pending[engine]; ok && j.done == nil {
		j.done = make(chan struct{})
		d.pending[engine] = j
	}
	return d.pending[engine].done
}

// release wakes every waiter and forgets the running jobs (caller holds
// the lock).
func (d *Device) release() {
	for e, j := range d.pending {
		if j.done != nil {
			close(j.done)
		}
		delete(d.pending, e)
	}
}

// finishDue completes engine's job if it is due (caller holds the lock).
// A timer left by a job a reset or hang released finds nothing due, or
// the engine's next job already due.
func (d *Device) finishDue(engine int) {
	j, ok := d.pending[engine]
	if d.hung || !ok || time.Now().Before(j.due) {
		return
	}
	delete(d.pending, engine)
	if j.done != nil {
		close(j.done)
	}
	d.jobsDone++
	status := JobDone
	if k := d.faults.FailJobEvery; k > 0 && d.jobsDone%k == 0 {
		status = JobError
	}
	d.regs[RegJobStatus+uint32(4*engine)] = status
	if n := d.faults.HangAfterJobs; n > 0 && d.jobsDone >= n {
		d.hung = true
		d.faults.HangAfterJobs = 0 // hang once; reset clears it
		d.release()
	}
	if n := d.faults.OverheatAfterJobs; n > 0 && d.jobsDone >= n {
		d.regs[RegTempMilli] = 99000
	}
}

// Reset power-cycles the card: pending jobs are lost, registers reload.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.release()
	d.hung = false
	d.resets++
	d.regs = map[uint32]uint64{}
	d.powerOn()
}

// Stats reports lifetime counters for monitoring tests.
func (d *Device) Stats() (jobsDone, resets int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobsDone, d.resets
}

// parity31 computes the odd-parity bit the driver folds into
// configuration words so read-back can detect corrupted loads.
func parity31(v uint64) uint64 {
	return uint64(bits.OnesCount64(v&^(1<<63))&1) ^ 1
}

// sealWord packs a 63-bit payload with its parity bit.
func sealWord(v uint64) (uint64, error) {
	if v>>63 != 0 {
		return 0, fmt.Errorf("runtime: payload exceeds 63 bits")
	}
	return v | parity31(v)<<63, nil
}

// checkWord validates parity and strips it.
func checkWord(w uint64) (uint64, error) {
	if w>>63 != parity31(w) {
		return 0, fmt.Errorf("runtime: register parity error")
	}
	return w &^ (1 << 63), nil
}
