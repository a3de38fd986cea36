// Package stats implements the statistical machinery KeyBin2's histogram
// pipeline needs: moving-average smoothing, windowed local regression and
// discrete derivatives (the §3.2 partitioner), a Lilliefors-corrected
// Kolmogorov–Smirnov normality test on binned data (§3.1 dimension
// collapsing), Gaussian kernel density estimation (the comparator in §3.2),
// percentiles, the hypergeometric distribution used to motivate N_rp, and
// the descriptive summaries (mean ± confidence interval) the evaluation
// section reports.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the unbiased sample variance of v (0 when len < 2).
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var ss float64
	for _, x := range v {
		x -= m
		ss += float64(x * x)
	}
	return ss / float64(len(v)-1)
}

// Std returns the sample standard deviation of v.
func Std(v []float64) float64 { return math.Sqrt(Variance(v)) }

// Percentile returns the p-th percentile (p in [0,100]) of v using linear
// interpolation between order statistics. It panics on empty input.
func Percentile(v []float64, p float64) float64 {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := float64(pos) - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// Median returns the 50th percentile of v.
func Median(v []float64) float64 { return Percentile(v, 50) }

// Summary bundles the descriptive statistics the paper's Table 3 reports.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
	Median, P25, P75    float64
}

// Summarize computes a Summary of v. It panics on empty input.
func Summarize(v []float64) Summary {
	min, max := v[0], v[0]
	for _, x := range v {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return Summary{
		N: len(v), Mean: Mean(v), Std: Std(v), Min: min, Max: max,
		Median: Median(v), P25: Percentile(v, 25), P75: Percentile(v, 75),
	}
}

// MeanCI returns the mean of v and the half-width of its normal-theory 95%
// confidence interval (1.96·s/√n), the format used by the paper's tables
// ("x ± y over 20 independent runs").
func MeanCI(v []float64) (mean, halfWidth float64) {
	mean = Mean(v)
	if len(v) < 2 {
		return mean, 0
	}
	return mean, 1.96 * Std(v) / math.Sqrt(float64(len(v)))
}

// NormalCDF returns Φ((x-mu)/sigma), the Gaussian cumulative distribution.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// WeightedMeanStd returns the mean and (population) standard deviation of
// bin centers weighted by counts — the moments of a histogram.
func WeightedMeanStd(centers []float64, counts []uint64) (mean, std float64, total uint64) {
	for i, c := range counts {
		total += c
		mean += float64(centers[i] * float64(c))
	}
	if total == 0 {
		return 0, 0, 0
	}
	mean /= float64(total)
	var ss float64
	for i, c := range counts {
		d := centers[i] - mean
		ss += float64(d * d * float64(c))
	}
	return mean, math.Sqrt(ss / float64(total)), total
}
