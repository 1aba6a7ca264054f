package ntt

import (
	"math/rand"
	"testing"

	"cham/internal/mod"
)

func TestBankedForwardMatchesCT(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{16, 64, 1024, 4096} {
		for _, nbf := range []int{1, 2, 4, 8} {
			if 4*nbf > n {
				continue
			}
			tb := MustTable(n, mod.ChamQ0)
			u, err := NewBankedUnit(tb, nbf)
			if err != nil {
				t.Fatal(err)
			}
			a := randomPoly(rng, n, tb.M.Q)
			want := append([]uint64(nil), a...)
			tb.ForwardLazy(want)
			got := u.Forward(a)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("N=%d nbf=%d: banked result differs at %d", n, nbf, i)
				}
			}
		}
	}
}

func TestBankedNoConflictsAndCycleCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{64, 4096} {
		for _, nbf := range []int{2, 4, 8} {
			tb := MustTable(n, mod.ChamQ1)
			u, _ := NewBankedUnit(tb, nbf)
			u.Forward(randomPoly(rng, n, tb.M.Q))
			if u.BankConflicts != 0 {
				t.Errorf("N=%d nbf=%d: %d bank conflicts; constant geometry must be conflict-free",
					n, nbf, u.BankConflicts)
			}
			if want := CGCycles(n, nbf); u.Cycles != want {
				t.Errorf("N=%d nbf=%d: %d cycles, want %d", n, nbf, u.Cycles, want)
			}
		}
	}
}

// TestChamNTTLatency pins the headline Table III number: N=4096, n_bf=4
// must take exactly 6144 cycles.
func TestChamNTTLatency(t *testing.T) {
	if got := CGCycles(4096, 4); got != 6144 {
		t.Fatalf("CGCycles(4096,4) = %d, want 6144 (Table III)", got)
	}
	tb := MustTable(4096, mod.ChamQ0)
	u, _ := NewBankedUnit(tb, 4)
	u.Forward(make([]uint64, 4096))
	if u.Cycles != 6144 {
		t.Fatalf("banked model took %d cycles, want 6144", u.Cycles)
	}
}

func TestBankedROMs(t *testing.T) {
	tb := MustTable(256, mod.ChamP)
	for _, nbf := range []int{1, 4, 8} {
		u, _ := NewBankedUnit(tb, nbf)
		if err := u.VerifyROMs(); err != nil {
			t.Errorf("nbf=%d: %v", nbf, err)
		}
		if want := tb.N / 2 * tb.LogN / nbf; u.ROMDepth != want {
			t.Errorf("nbf=%d: ROM depth %d, want %d", nbf, u.ROMDepth, want)
		}
	}
}

func TestNewBankedUnitRejectsBadNBF(t *testing.T) {
	tb := MustTable(16, smallPrime(t, 16))
	for _, nbf := range []int{0, 3, 8, 16, -1} {
		if _, err := NewBankedUnit(tb, nbf); err == nil {
			t.Errorf("nbf=%d accepted", nbf)
		}
	}
}

func TestBankOfRoundRobin(t *testing.T) {
	tb := MustTable(64, smallPrime(t, 64))
	u, _ := NewBankedUnit(tb, 4)
	for i := 0; i < 64; i++ {
		if got := u.bankOf(i); got != i%8 {
			t.Fatalf("bankOf(%d) = %d, want %d", i, got, i%8)
		}
	}
}

func TestBankedInverseMatchesGS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{64, 1024, 4096} {
		for _, nbf := range []int{2, 4, 8} {
			tb := MustTable(n, mod.ChamQ0)
			u, _ := NewBankedUnit(tb, nbf)
			a := randomPoly(rng, n, tb.M.Q)
			want := append([]uint64(nil), a...)
			tb.InverseLazy(want)
			got := u.Inverse(a)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("N=%d nbf=%d: banked inverse differs at %d", n, nbf, i)
				}
			}
			if u.BankConflicts != 0 {
				t.Errorf("N=%d nbf=%d: %d conflicts in inverse dataflow", n, nbf, u.BankConflicts)
			}
			if want := CGCycles(n, nbf); u.Cycles != want {
				t.Errorf("N=%d nbf=%d: inverse took %d cycles, want %d", n, nbf, u.Cycles, want)
			}
		}
	}
}

// TestBankedRoundTrip: forward then inverse through the hardware model
// recovers the input.
func TestBankedRoundTrip(t *testing.T) {
	tb := MustTable(1024, mod.ChamP)
	u, _ := NewBankedUnit(tb, 4)
	rng := rand.New(rand.NewSource(13))
	a := randomPoly(rng, 1024, tb.M.Q)
	back := u.Inverse(u.Forward(a))
	for i := range a {
		if back[i] != a[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}
