package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the middle two for an even
// count), the same definition Python's statistics.median uses. It does
// not reorder v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the default "exclusive"
// method), so -repeat prints the same spread the driver will compute.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of the three cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailSteps are the percentiles a latency tail may be reported at.
var tailSteps = []float64{0.50, 0.90, 0.95, 0.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile is the nearest-rank p-quantile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail returns the highest percentile of tailSteps, capped at want, that
// still has at least minBeyond samples beyond it, and the value there: a
// p99 of 300 samples is three samples' worth of noise, so it is reported
// as the p95 instead and the caller prints which one it got. With fewer
// than 2*minBeyond samples only the median is supported.
func tail(sorted []float64, want float64) (p, value float64) {
	p = tailSteps[0]
	for _, step := range tailSteps {
		if step > want {
			break
		}
		rank := int(math.Ceil(step * float64(len(sorted))))
		if len(sorted)-rank >= minBeyond {
			p = step
		}
	}
	return p, percentile(sorted, p)
}
