package stats

import "math"

// KSNormalBinned computes the Kolmogorov–Smirnov distance between the
// empirical CDF of binned data (bin centers + counts) and a normal
// distribution whose mean and standard deviation are estimated from the
// same histogram — i.e. the Lilliefors variant of the test, which the paper
// uses to flag "statistically anomalous dimensions" (§3.1).
//
// It returns the KS statistic D and the effective sample size n (total
// count). A dimension whose histogram is indistinguishable from a single
// Gaussian carries no clustering structure and can be collapsed.
func KSNormalBinned(centers []float64, counts []uint64) (d float64, n uint64) {
	mean, std, total := WeightedMeanStd(centers, counts)
	if total == 0 {
		return 0, 0
	}
	if std == 0 {
		// Degenerate single-bin histogram: maximally non-normal.
		return 1, total
	}
	// The empirical CDF of binned data is exact at bin edges (every sample
	// at or below an edge is counted there), so evaluating the KS gap at
	// the upper edge of each bin avoids the half-bin discretization bias
	// that evaluating at centers would introduce.
	var cum uint64
	for i, c := range counts {
		cum += c
		cur := float64(cum) / float64(total)
		f := NormalCDF(upperEdge(centers, i), mean, std)
		if diff := math.Abs(cur - f); diff > d {
			d = diff
		}
	}
	return d, total
}

// upperEdge is bin i's upper edge, halfway to the next center; the last
// bin mirrors the previous half-width, and a lone bin is its own center.
func upperEdge(centers []float64, i int) float64 {
	switch {
	case i+1 < len(centers):
		return (centers[i] + centers[i+1]) / 2
	case len(centers) >= 2:
		return centers[i] + float64((centers[i]-centers[i-1])/2)
	default:
		return centers[i]
	}
}

// LillieforsCritical returns the approximate critical value of the
// Lilliefors test statistic at the 5% significance level for sample size n
// (Lilliefors 1967; asymptotic form 0.886/√n with small-sample correction
// via the Dallal–Wilkinson adjustment denominator √n − 0.01 + 0.85/√n).
func LillieforsCritical(n uint64) float64 {
	if n < 4 {
		return 0.375 // table value for the smallest testable n
	}
	fn := float64(n)
	return 0.886 / (math.Sqrt(fn) - 0.01 + 0.85/math.Sqrt(fn))
}

// LooksNormal reports whether the binned sample fails to reject normality
// at the 5% level — i.e. the dimension looks like one Gaussian blob and is
// a candidate for collapsing. The relax factor scales the critical value:
// relax > 1 collapses more aggressively, < 1 more conservatively.
//
// The answer is KSNormalBinned's d <= LillieforsCritical(n)*relax, but the
// scan stops at the first gap above the critical value: D is the largest
// gap (or 0), so one such gap decides the test. Each gap is computed as
// KSNormalBinned computes it, so the verdict is the same to the bit.
func LooksNormal(centers []float64, counts []uint64, relax float64) bool {
	mean, std, total := WeightedMeanStd(centers, counts)
	if total == 0 {
		return true // empty dimension carries no information
	}
	crit := LillieforsCritical(total) * relax
	if std == 0 {
		return 1 <= crit // KSNormalBinned's D for a single occupied bin
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		cur := float64(cum) / float64(total)
		f := NormalCDF(upperEdge(centers, i), mean, std)
		if math.Abs(cur-f) > crit {
			return false
		}
	}
	return 0 <= crit
}
