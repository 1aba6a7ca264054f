package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// ascending values: the smallest sample with at least p of the samples at
// or below it. Nearest rank keeps every reported latency an observed one
// and makes "samples beyond p90" a plain count: n - ceil(0.9 n).
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// p50 and p90 sort a copy, so callers can keep arrival order.
func p50(v []float64) float64 { return percentile(sortedCopy(v), 0.50) }
func p90(v []float64) float64 { return percentile(sortedCopy(v), 0.90) }

// midmean is the mean of the middle half of v (the interquartile mean):
// the samples from rank n/4 up to rank 3n/4. Fewer than four samples give
// their median.
func midmean(v []float64) float64 {
	s := sortedCopy(v)
	lo, hi := len(s)/4, len(s)-len(s)/4
	if len(s) < 4 {
		return percentile(s, 0.50)
	}
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), the rule the acceptance driver applies to ten runs.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
