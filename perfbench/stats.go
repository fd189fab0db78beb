package main

import (
	"fmt"
	"sort"
)

// minPercentileSamples is the fewest samples a percentile is taken over.
const minPercentileSamples = 20

// quantile returns the q-quantile (0 < q < 1) of xs by the exclusive
// method, the default of Python's statistics.quantiles: the sample at
// rank q·(n+1), interpolated linearly and clamped to the extremes.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	h := q * float64(n+1)
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	j := int(h)
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is quantile guarded by the sample-count rule: a tail
// percentile over fewer than minPercentileSamples samples is refused.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) < minPercentileSamples {
		return 0, fmt.Errorf("percentile p%g over %d samples; need at least %d", q*100, len(xs), minPercentileSamples)
	}
	return quantile(xs, q), nil
}
