package runtime

import (
	"context"
	"testing"
	"time"
)

func validDescriptor() *HMVPDescriptor {
	return &HMVPDescriptor{
		Rows: 4096, Cols: 4096,
		MatrixAddr: 0x1000_0000, VectorAddr: 0x2000_0000,
		KeyAddr: 0x3000_0000, ResultAddr: 0x4000_0000,
		PackRowsLog2: 12,
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	d := validDescriptor()
	words, err := d.Words()
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 6 {
		t.Fatalf("%d words", len(words))
	}
	// Every word must fit 63 bits (parity lives in bit 63).
	for i, w := range words {
		if w>>63 != 0 {
			t.Errorf("word %d uses bit 63", i)
		}
	}
	// Each field sits where the engine's scratch registers expect it.
	back := HMVPDescriptor{
		Rows:         uint32(words[0] >> 32),
		Cols:         uint32(words[0]),
		MatrixAddr:   words[1],
		VectorAddr:   words[2],
		KeyAddr:      words[3],
		ResultAddr:   words[4],
		PackRowsLog2: uint8(words[5]),
	}
	if back != *d {
		t.Fatalf("round trip: %+v vs %+v", back, *d)
	}
}

func TestDescriptorValidation(t *testing.T) {
	cases := map[string]func(*HMVPDescriptor){
		"zero rows":      func(d *HMVPDescriptor) { d.Rows = 0 },
		"zero cols":      func(d *HMVPDescriptor) { d.Cols = 0 },
		"huge pack":      func(d *HMVPDescriptor) { d.PackRowsLog2 = 13 },
		"address range":  func(d *HMVPDescriptor) { d.MatrixAddr = maxAddr },
		"misaligned":     func(d *HMVPDescriptor) { d.VectorAddr = 0x1001 },
		"misaligned key": func(d *HMVPDescriptor) { d.KeyAddr = 7 },
	}
	for name, corrupt := range cases {
		d := validDescriptor()
		corrupt(d)
		if _, err := d.Words(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDescriptorValidationEdges pins the exact accept/reject boundaries of
// every validated field: the last aligned address inside device memory is
// legal, one step past (or off alignment) is not, and the pack-tile
// exponent caps at N=4096.
func TestDescriptorValidationEdges(t *testing.T) {
	ok := validDescriptor()
	ok.ResultAddr = maxAddr - 64 // highest aligned in-range address
	ok.PackRowsLog2 = 12
	if _, err := ok.Words(); err != nil {
		t.Errorf("boundary-valid descriptor rejected: %v", err)
	}

	rejects := map[string]func(*HMVPDescriptor){
		"address one past the end":  func(d *HMVPDescriptor) { d.ResultAddr = maxAddr },
		"aligned but out of range":  func(d *HMVPDescriptor) { d.KeyAddr = maxAddr + 64 },
		"matrix addr misaligned":    func(d *HMVPDescriptor) { d.MatrixAddr += 8 },
		"result addr misaligned":    func(d *HMVPDescriptor) { d.ResultAddr = 63 },
		"pack tile above N":         func(d *HMVPDescriptor) { d.PackRowsLog2 = 255 },
		"zero geometry both fields": func(d *HMVPDescriptor) { d.Rows, d.Cols = 0, 0 },
	}
	for name, corrupt := range rejects {
		d := validDescriptor()
		corrupt(d)
		if _, err := d.Words(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A runtime must refuse malformed descriptors before touching the
	// device.
	dev := NewDevice(1, time.Millisecond, FaultPlan{})
	rt, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	badD := validDescriptor()
	badD.PackRowsLog2 = 13
	if err := rt.RunHMVPCtx(context.Background(), badD); err == nil {
		t.Error("runtime executed an out-of-range tile shape")
	}
}

// TestRunHMVPEndToEnd drives a descriptor through the full
// runtime/driver/device stack, including a fault-recovery pass.
func TestRunHMVPEndToEnd(t *testing.T) {
	dev := NewDevice(2, 200*time.Microsecond, FaultPlan{CorruptWriteEvery: 7})
	rt, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := rt.RunHMVPCtx(context.Background(), validDescriptor()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := rt.RunHMVPCtx(context.Background(), &HMVPDescriptor{}); err == nil {
		t.Error("invalid descriptor executed")
	}
}
