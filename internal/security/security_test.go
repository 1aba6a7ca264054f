package security

import (
	"math"
	"testing"

	"cham/internal/bfv"
	"cham/internal/mod"
	"cham/internal/ring"
	"cham/internal/rlwe"
)

// TestChamParamsMeetTheStandard pins the §II-F sentence: N=4096 with the
// 35+35+39-bit chain sits exactly at the 109-bit / 128-bit-security entry.
func TestChamParamsMeetTheStandard(t *testing.T) {
	p, err := bfv.NewChamParams(4096)
	if err != nil {
		t.Fatal(err)
	}
	if nb := NominalBits(p.Params); nb != 109 {
		t.Errorf("nominal bits = %d, the paper says 109 (35+35+39)", nb)
	}
	logQP := LogQP(p.Params)
	if logQP > 109 || logQP < 106 {
		t.Errorf("logQP = %.3f, want just under the 109-bit nominal count", logQP)
	}
	if err := Check(p.Params, Level128); err != nil {
		t.Errorf("CHAM parameters fail the 128-bit standard: %v", err)
	}
	// And they deliberately use (almost) the whole budget.
	if head := float64(maxLogQP[Level128][12]) - logQP; head < 0 || head > 3 {
		t.Errorf("headroom %.2f bits; the paper's point is a nearly full budget", head)
	}
	// They do NOT reach 192-bit security — the budget there is 75 bits.
	if err := Check(p.Params, Level192); err == nil {
		t.Error("109-bit modulus at N=4096 cannot be 192-bit secure")
	}
}

// TestSmallerRingsRejected: the same modulus on a smaller ring violates
// the standard (this is why the test rings in this repository are for
// testing only).
func TestSmallerRingsRejected(t *testing.T) {
	r := ring.MustNew(1024, mod.ChamModuli())
	p, err := rlwe.NewParams(r, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p, Level128); err == nil {
		t.Error("109-bit modulus at N=1024 accepted")
	}
}

func TestHigherLevels(t *testing.T) {
	// A slim chain at N=4096 reaches 192 bits: one 35-bit + one 39-bit
	// limb (74 ≤ 75).
	primes := []uint64{mod.ChamQ0, mod.ChamP}
	r := ring.MustNew(4096, primes)
	p, err := rlwe.NewParams(r, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p, Level192); err != nil {
		t.Errorf("74-bit chain at N=4096 should be 192-bit secure: %v", err)
	}
	if err := Check(p, Level256); err == nil {
		t.Error("74-bit chain cannot be 256-bit secure (ceiling 58)")
	}
}

func TestCheckErrors(t *testing.T) {
	r := ring.MustNew(512, []uint64{12289}) // N=512 below the table
	p, err := rlwe.NewParams(r, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p, Level128); err == nil {
		t.Error("untabulated ring degree accepted")
	}
	if err := Check(p, Level(99)); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestLogQPAdds(t *testing.T) {
	r := ring.MustNew(4096, mod.ChamModuli())
	p, _ := rlwe.NewParams(r, 2, 21)
	want := math.Log2(float64(mod.ChamQ0)) + math.Log2(float64(mod.ChamQ1)) + math.Log2(float64(mod.ChamP))
	if got := LogQP(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("LogQP = %f, want %f", got, want)
	}
}
