package vec

import (
	"fmt"
	"testing"

	"cham/internal/mod"
)

// TestTransformSchedules pins the transforms' reduction schedules: which
// passes reduce and the largest value a lane holds, which must stay below
// 2^52 for every modulus the gate admits. The CHAM moduli and a 46-bit
// prime run lazily everywhere but in the inverse's late passes at N=2^15;
// the primes just under 2^50 have no headroom, so every pass reduces.
func TestTransformSchedules(t *testing.T) {
	under50, err := mod.NTTFriendlyPrimes(50, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	wide46, err := mod.NTTFriendlyPrimes(46, 1<<15, 1)
	if err != nil {
		t.Fatal(err)
	}
	type want struct{ fwd, fwdTop, inv, invTop uint64 } // tops in units of q
	cases := []struct {
		name  string
		q     []uint64
		small want // N = 32
		large want // N = 2^15
	}{
		{"ChamQ0/Q1", []uint64{mod.ChamQ0, mod.ChamQ1}, want{0, 14, 0, 64}, want{0, 34, 0, 1 << 16}},
		{"ChamP", []uint64{mod.ChamP}, want{0, 14, 0, 64}, want{0, 34, 0b110000, 4096}},
		{"46-bit", wide46, want{0, 14, 0, 64}, want{0, 34, 0b111110, 64}},
		{"under50", under50, want{0b1, 4, 0b1, 4}, want{0b111111, 4, 0b111111, 4}},
	}
	for _, tc := range cases {
		for _, q := range tc.q {
			for _, n := range []struct {
				logN int
				want want
			}{{5, tc.small}, {15, tc.large}} {
				t.Run(fmt.Sprintf("%s/q=%d/N=%d", tc.name, q, 1<<n.logN), func(t *testing.T) {
					fwd, fwdTop := forwardSchedule(q, n.logN, 4)
					var c [64]uint64
					inv, invTop := inverseSchedule(q, n.logN, &c)
					got := want{fwd, (fwdTop + 1) / q, inv, (invTop + 1) / q}
					if got != n.want || (fwdTop+1)%q != 0 || (invTop+1)%q != 0 {
						t.Errorf("schedules (forward mask, top/q, inverse mask, top/q) = %v (tops %d, %d), want %v",
							got, fwdTop, invTop, n.want)
					}
					if fwdTop >= 1<<52 || invTop >= 1<<52 {
						t.Errorf("a lane reaches %d (forward) or %d (inverse), past 2^52", fwdTop, invTop)
					}
					// Every stage's constant is a multiple of q, at least 2q,
					// and at most half the inverse's top.
					for s := 0; s < n.logN; s++ {
						if c[s]%q != 0 || c[s] < 2*q || 2*c[s] > invTop+1 {
							t.Errorf("inverse stage %d: constant %d", s, c[s])
						}
					}
				})
			}
		}
	}
}
