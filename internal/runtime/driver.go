package runtime

import (
	"errors"
	"fmt"
	"time"
)

// ErrWaitTimeout marks a WaitJob that gave up at its deadline, as
// opposed to a device-reported failure; the runtime uses it to tell a
// deadline-capped wait apart from a hung card.
var ErrWaitTimeout = errors.New("timed out")

// writeRetries bounds re-attempts on corrupted register loads.
const writeRetries = 3

// Driver is the low-level access layer: verified register loads, job
// dispatch, and reset. It implements the first RAS feature the paper
// lists — FPGA register loading error handling — by sealing every
// configuration word with a parity bit and reading back after write.
type Driver struct {
	dev *Device
	// recovered counts register loads that needed a retry.
	recovered int
}

// NewDriver attaches to a device.
func NewDriver(dev *Device) *Driver {
	return &Driver{dev: dev}
}

// Alive probes the magic register.
func (dr *Driver) Alive() bool {
	return dr.dev.ReadReg(RegMagic) == MagicValue
}

// LoadConfig writes a configuration word with parity sealing and
// read-back verification, retrying on corruption.
func (dr *Driver) LoadConfig(addr uint32, v uint64) error {
	sealed, err := sealWord(v)
	if err != nil {
		return err
	}
	for attempt := 0; attempt <= writeRetries; attempt++ {
		dr.dev.WriteReg(addr, sealed)
		got := dr.dev.ReadReg(addr)
		if got == ^uint64(0) {
			return fmt.Errorf("runtime: card unresponsive during config load")
		}
		if payload, err := checkWord(got); err == nil && payload == v {
			if attempt > 0 {
				dr.recovered++
				mRecovered.Inc()
			}
			return nil
		}
	}
	return fmt.Errorf("runtime: register 0x%04x failed verification after %d retries",
		addr, writeRetries)
}

// RecoveredWrites reports how many register loads needed retries — the
// counter the production RAS telemetry exports.
func (dr *Driver) RecoveredWrites() int { return dr.recovered }

// Submit rings the doorbell for an engine and verifies the engine left
// the idle state (a corrupted doorbell write is simply lost — the same
// read-back discipline as LoadConfig, with the job-status register as the
// witness). Retries a bounded number of times.
func (dr *Driver) Submit(engine int) error {
	for attempt := 0; attempt <= writeRetries; attempt++ {
		dr.dev.WriteReg(RegDoorbell, uint64(engine))
		s := dr.Status(engine)
		if s == ^uint64(0) {
			return fmt.Errorf("runtime: card unresponsive at submit")
		}
		if s != JobIdle {
			if attempt > 0 {
				dr.recovered++
				mRecovered.Inc()
			}
			return nil
		}
	}
	return fmt.Errorf("runtime: doorbell for engine %d failed after %d retries",
		engine, writeRetries)
}

// Status reads an engine's job status.
func (dr *Driver) Status(engine int) uint64 {
	return dr.dev.ReadReg(RegJobStatus + uint32(4*engine))
}

// WaitJob waits until an engine leaves JobRunning or the timeout passes,
// then reads its status. The device wakes it the moment the engine does —
// its job finished, the card was reset, or the card hung — so a hang is
// reported as the all-ones read at once, not at the timeout.
func (dr *Driver) WaitJob(engine int, timeout time.Duration) (uint64, error) {
	if done := dr.dev.jobDone(engine); done != nil {
		t := time.NewTimer(timeout)
		select {
		case <-done:
		case <-t.C:
		}
		t.Stop()
	}
	s := dr.Status(engine)
	if s == ^uint64(0) {
		return 0, fmt.Errorf("runtime: card hung (bus returns all-ones)")
	}
	if s == JobRunning {
		return 0, fmt.Errorf("runtime: engine %d %w after %v", engine, ErrWaitTimeout, timeout)
	}
	return s, nil
}

// Reset power-cycles the card.
func (dr *Driver) Reset() { dr.dev.Reset() }

// Temperature returns the die temperature in degrees C.
func (dr *Driver) Temperature() float64 {
	return float64(dr.dev.ReadReg(RegTempMilli)) / 1000
}

// Heartbeat reads the liveness counter; two equal consecutive reads (or
// all-ones) indicate a hang.
func (dr *Driver) Heartbeat() uint64 { return dr.dev.ReadReg(RegHeartbeat) }
