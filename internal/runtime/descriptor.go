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

// RunHMVP loads the descriptor and executes it as one accelerator job.
func (rt *Runtime) RunHMVP(d *HMVPDescriptor) error {
	return rt.RunHMVPCtx(context.Background(), d)
}

// RunHMVPCtx is RunHMVP bounded by a context (see RunJobCtx): the serving
// tier uses it so a request whose deadline expired while queued never
// occupies an engine slot.
func (rt *Runtime) RunHMVPCtx(ctx context.Context, d *HMVPDescriptor) error {
	words, err := d.Words()
	if err != nil {
		return err
	}
	return rt.RunJobCtx(ctx, words)
}
