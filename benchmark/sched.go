package main

import (
	"math/rand"
	"time"
)

// arrivalShape is the Erlang shape of the open-loop gaps: what one of
// four replicas behind a round-robin balancer sees of Poisson traffic.
const arrivalShape = 4

// arrivalSchedule returns the offsets, from the start of the window, at
// which an open-loop workload sends its requests: rate x seconds arrivals
// whose gaps are Erlang-4 (the sum of four exponentials), drawn from the
// seed and scaled so the last gap ends with the window.
//
// Why not plain Poisson gaps: at ring degree 4096 a window holds a few
// hundred requests, two overlapping requests share the cores and each
// takes about twice as long, and with exponential gaps the share of
// requests that overlap - and with it p50 and p90 - differs by 20-30 %
// between seeds and between runs of one seed. Erlang-4 gaps still bunch
// (coefficient of variation 0.5) and still queue, but the percentiles of
// one window repeat. Fixing the count removes the arrival count's own
// sqrt(n) noise from the offered load.
func arrivalSchedule(seed int64, ratePerSec, seconds float64) []time.Duration {
	n := int(ratePerSec*seconds + 0.5)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	gap := func() (g float64) {
		for k := 0; k < arrivalShape; k++ {
			g += rng.ExpFloat64()
		}
		return g
	}
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += gap()
		at[i] = t
	}
	t += gap()
	window := seconds * float64(time.Second)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(at[i] / t * window)
	}
	return out
}

// randMatrix draws a rows x cols matrix of residues mod t.
func randMatrix(rng *rand.Rand, t uint64, rows, cols int) [][]uint64 {
	a := make([][]uint64, rows)
	for i := range a {
		a[i] = randVector(rng, t, cols)
	}
	return a
}

// randVector draws n residues mod t.
func randVector(rng *rand.Rand, t uint64, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % t
	}
	return v
}

// matrixPool draws count independent matrices from one seeded stream.
func matrixPool(rng *rand.Rand, t uint64, count, rows, cols int) [][][]uint64 {
	pool := make([][][]uint64, count)
	for k := range pool {
		pool[k] = randMatrix(rng, t, rows, cols)
	}
	return pool
}
