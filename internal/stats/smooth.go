package stats

import "math"

// MovingAverage smooths v with a centered window of the given width
// (minimum 1; even widths are rounded up to the next odd width so the
// window stays centered). Edges use the available partial window, which
// avoids manufacturing spurious boundary modes.
//
// The paper smooths binning histograms with a window w = √B where B ≈
// log₂²(M) bins, before differentiating (§3.2).
func MovingAverage(v []float64, width int) []float64 {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := make([]float64, len(v))
	for i := range v {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(v) {
			hi = len(v) - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += v[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// exactBelow is 2^53: every integer below it is a float64, and a float sum
// of non-negative integers whose partial sums stay below it never rounds.
const exactBelow = 1 << 53

// MovingAverageCounts is MovingAverage over integer counts, bit for bit
// equal to MovingAverage of the counts converted to float64. It slides one
// integer window sum across the counts instead of re-adding every window.
// The two agree exactly while the total stays below 2^53: then the
// reference's float sums are exact integers, the integer sum converts
// without rounding, and both divide the same two numbers. Beyond that it
// runs the reference.
func MovingAverageCounts(counts []uint64, width int) []float64 {
	var total uint64
	for _, c := range counts {
		total += c
		if c >= exactBelow || total >= exactBelow {
			v := make([]float64, len(counts))
			for i, c := range counts {
				v[i] = float64(c)
			}
			return MovingAverage(v, width)
		}
	}
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := make([]float64, len(counts))
	var sum uint64
	lo, hi := 0, -1 // the window summed so far, [lo, hi]
	for i := range out {
		for hi < len(counts)-1 && hi < i+half {
			hi++
			sum += counts[hi]
		}
		for lo < i-half {
			sum -= counts[lo]
			lo++
		}
		out[i] = float64(sum) / float64(hi-lo+1)
	}
	return out
}

// LocalSlopes estimates the first derivative of v at every index by fitting
// an ordinary-least-squares line to a centered window of the given width
// (odd; minimum 3). This is the "local regression" step of the §3.2
// partitioner: the fitted slope is the tangent of the underlying density at
// that bin, far more noise-tolerant than a two-point difference.
//
// Every slope is bit for bit LocalSlopeAt's. Windows cut short by either
// end of v take LocalSlopeAt itself. Full windows run four at a time, one
// pass over their shared span with four independent chains of Σy and Σxy,
// each summed in LocalSlopeAt's order. Σx and Σx² are sums of small
// integers, so LocalSlopeAt's float sums of them are exact and equal the
// closed forms used here; 2^17 indices keep Σx² far below 2^53.
func LocalSlopes(v []float64, width int) []float64 {
	out := make([]float64, len(v))
	w := max(width, 3)
	if w%2 == 0 {
		w++
	}
	half := w / 2
	first, end := half, len(v)-half // indices whose window is whole
	if first >= end || len(v) > 1<<17 {
		first, end = len(v), len(v)
	}
	for i := 0; i < first; i++ {
		out[i] = LocalSlopeAt(v, width, i)
	}
	for i := end; i < len(v); i++ {
		out[i] = LocalSlopeAt(v, width, i)
	}
	n := float64(w)
	i := first
	for ; i+4 <= end; i += 4 {
		lo := i - half
		var sy0, sy1, sy2, sy3, sxy0, sxy1, sxy2, sxy3 float64
		for j := lo; j < lo+w; j++ {
			y := v[j : j+4 : j+4]
			x := float64(j)
			sy0 += y[0]
			sxy0 += float64(x * y[0])
			sy1 += y[1]
			sxy1 += float64((x + 1) * y[1])
			sy2 += y[2]
			sxy2 += float64((x + 2) * y[2])
			sy3 += y[3]
			sxy3 += float64((x + 3) * y[3])
		}
		out[i] = windowSlope(n, lo, w, sy0, sxy0)
		out[i+1] = windowSlope(n, lo+1, w, sy1, sxy1)
		out[i+2] = windowSlope(n, lo+2, w, sy2, sxy2)
		out[i+3] = windowSlope(n, lo+3, w, sy3, sxy3)
	}
	for ; i < end; i++ {
		out[i] = LocalSlopeAt(v, width, i)
	}
	return out
}

// windowSlope finishes LocalSlopeAt's OLS fit over the w indices from lo,
// given the window's Σy and Σxy; Σx and Σx² are the closed forms, in int64
// so they hold on 32-bit platforms too.
func windowSlope(n float64, lo, w int, sy, sxy float64) float64 {
	hi := int64(lo + w - 1)
	sx := float64((int64(lo) + hi) * int64(w) / 2)
	sxx := float64(squareSum(hi) - squareSum(int64(lo)-1))
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return 0
	}
	return (float64(n*sxy) - float64(sx*sy)) / den
}

// squareSum is 0² + 1² + … + m² (0 for m < 1).
func squareSum(m int64) int64 {
	if m < 1 {
		return 0
	}
	return m * (m + 1) * (2*m + 1) / 6
}

// LocalSlopeAt is LocalSlopes evaluated at a single index: the same OLS
// fit over the same centered window, bit-identical to LocalSlopes(v,
// width)[i]. Callers that need the derivative at only a few indices (the
// partitioner's curvature check at valley candidates) use this to skip
// the full O(len·width) pass.
func LocalSlopeAt(v []float64, width, i int) float64 {
	if width < 3 {
		width = 3
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	lo, hi := i-half, i+half
	if lo < 0 {
		lo = 0
	}
	if hi >= len(v) {
		hi = len(v) - 1
	}
	n := float64(hi - lo + 1)
	if n < 2 {
		return 0
	}
	// OLS slope over (x=j, y=v[j]) for j in [lo,hi].
	var sx, sy, sxy, sxx float64
	for j := lo; j <= hi; j++ {
		x, y := float64(j), v[j]
		sx += x
		sy += y
		sxy += float64(x * y)
		sxx += float64(x * x)
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return 0
	}
	return (float64(n*sxy) - float64(sx*sy)) / den
}

// ZeroCrossings returns the indices i where v changes sign between i and
// i+1 in the requested direction: dir > 0 finds −→+ crossings (density
// valleys when v is a first derivative), dir < 0 finds +→− crossings
// (density modes), dir == 0 finds both.
func ZeroCrossings(v []float64, dir int) []int {
	var out []int
	for i := 0; i+1 < len(v); i++ {
		a, b := v[i], v[i+1]
		switch {
		case dir >= 0 && a < 0 && b >= 0:
			out = append(out, i)
		case dir <= 0 && a > 0 && b <= 0:
			out = append(out, i)
		}
	}
	return out
}

// ArgMax returns the index of the maximum of v (first occurrence), or -1
// for empty input.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// RelativeDip returns, for a valley at index i, how far the density dips
// below the *smaller* flanking mode, relative to that mode: 0 for a flat
// wiggle, →1 for a valley reaching zero. Unlike a dip measured against the
// global peak it is invariant to the mass imbalance between the two flanking clusters, so a valley next
// to a small cluster is judged on its own scale rather than against the
// global peak.
func RelativeDip(v []float64, i int) float64 {
	if len(v) == 0 || i < 0 || i >= len(v) {
		return 0
	}
	leftMax := v[i]
	for j := i - 1; j >= 0; j-- {
		if v[j] > leftMax {
			leftMax = v[j]
		}
	}
	rightMax := v[i]
	for j := i + 1; j < len(v); j++ {
		if v[j] > rightMax {
			rightMax = v[j]
		}
	}
	flank := math.Min(leftMax, rightMax)
	if flank <= 0 {
		return 0
	}
	return (flank - v[i]) / flank
}
