package runtime

import (
	"context"
	"fmt"
)

// HMVPDescriptor is the job configuration the host loads into an engine's
// scratch registers before ringing the doorbell: the matrix geometry and
// the DDR addresses of the streamed operands. It is what the production
// runtime would build from an application-level MatVec call.
type HMVPDescriptor struct {
	Rows, Cols   uint32
	MatrixAddr   uint64 // base of the streamed plaintext matrix
	VectorAddr   uint64 // base of the encrypted vector chunks
	KeyAddr      uint64 // packing key table
	ResultAddr   uint64 // destination for packed result ciphertexts
	PackRowsLog2 uint8  // log2 of the padded tile rows
}

// maxAddr bounds DDR addresses to the card's 64 GiB space.
const maxAddr = uint64(64) << 30

// Words serializes the descriptor into 63-bit config payloads (the
// parity bit is added by Driver.LoadConfig).
func (d *HMVPDescriptor) Words() ([]uint64, error) {
	if d.Rows == 0 || d.Cols == 0 {
		return nil, fmt.Errorf("runtime: empty HMVP geometry")
	}
	if d.PackRowsLog2 > 12 {
		return nil, fmt.Errorf("runtime: pack tile 2^%d exceeds N=4096", d.PackRowsLog2)
	}
	for _, a := range []uint64{d.MatrixAddr, d.VectorAddr, d.KeyAddr, d.ResultAddr} {
		if a >= maxAddr {
			return nil, fmt.Errorf("runtime: address 0x%x outside device memory", a)
		}
		if a%64 != 0 {
			return nil, fmt.Errorf("runtime: address 0x%x not 64-byte aligned", a)
		}
	}
	return []uint64{
		uint64(d.Rows)<<32 | uint64(d.Cols),
		d.MatrixAddr,
		d.VectorAddr,
		d.KeyAddr,
		d.ResultAddr,
		uint64(d.PackRowsLog2),
	}, nil
}

// RunJob runs one accelerator job that carries its host work: it takes
// an engine slot, loads the descriptor, rings the doorbell, runs work while
// it holds the slot, and then reads the card's status. A job the card
// fails or hangs is reset and replayed up to three times, and a replay runs
// work again, so work must give the same result when repeated. An error
// from work ends the job without a replay. JobTimeout times the card wait
// alone, which starts once work has returned. work must not run jobs on
// the same runtime: it holds an engine slot and blocks card recovery.
//
// The context bounds the rest: a job still queued for an engine when it
// expires aborts before any work runs, the card wait is capped to the time
// it has left, and its abort is not a replay. An abort surfaces as
// ctx.Err(), so callers can errors.Is it apart from card failures.
func (rt *Runtime) RunJob(ctx context.Context, d *HMVPDescriptor, work func() error) error {
	words, err := d.Words()
	if err != nil {
		return err
	}
	return rt.runJob(ctx, words, work)
}

// RunHMVPCtx is RunJob with no host work.
func (rt *Runtime) RunHMVPCtx(ctx context.Context, d *HMVPDescriptor) error {
	return rt.RunJob(ctx, d, nil)
}
