// Package kit holds what the end-to-end benchmark and the per-layer
// ladder share: the workload table, the seeded op streams, the sample
// statistics and the span arithmetic. It imports only the hbtree
// facade, so an internal refactor cannot break the end-to-end run.
package kit

import (
	"slices"
)

// Percentile returns the nearest-rank p-quantile (0 <= p <= 1) of an
// ascending slice; 0 for an empty one.
func Percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	// ceil(p*n) - 1, with a hair of slack so 0.99*100 = 99.00000000000001
	// still picks rank 99.
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Median sorts a copy of xs and returns the middle value (the mean of
// the two middle values for an even count).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// Quartiles returns the cut points of Python's
// statistics.quantiles(xs, n=4) — the exclusive method the acceptance
// rule is stated in — so a spread computed here matches the driver's.
// Fewer than two values have no spread: all three equal the value.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance as a share of the median, the
// noise figure every bound in BENCHMARK.json is compared against.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// WindowRates splits [0, phaseNs) into whole windows of windowNs and
// returns, per window, the events per second among the completion
// stamps (ns offsets from the phase start). A trailing partial window
// is dropped: its rate would be biased by where the phase ended.
func WindowRates(stamps []int64, windowNs, phaseNs int64) []float64 {
	n := int(phaseNs / windowNs)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, s := range stamps {
		if w := int(s / windowNs); s >= 0 && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] *= 1e9 / float64(windowNs)
	}
	return counts
}
