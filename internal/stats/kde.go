package stats

import "math"

// KDEBinned evaluates a Gaussian kernel density estimate built from binned
// data (bin centers weighted by counts) at each bin center, with
// Silverman's bandwidth (SilvermanBandwidth).
//
// DENCLUE-style KDE is the comparator the paper discusses for §3.2: it
// produces a smooth differentiable density but costs O(B²) per dimension on
// the binned representation (and O(M²) on raw points); the paper's
// moving-average + local-regression partitioner achieves similar accuracy
// at O(B·w). The ablation bench quantifies this trade-off.
func KDEBinned(centers []float64, counts []uint64) []float64 {
	out := make([]float64, len(centers))
	h := SilvermanBandwidth(centers, counts)
	if h <= 0 {
		// No mass, or all of it at one point.
		for i, c := range counts {
			out[i] = float64(c)
		}
		return out
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	norm := 1 / (h * math.Sqrt(2*math.Pi) * float64(total))
	for i, x := range centers {
		var s float64
		for j, c := range counts {
			if c == 0 {
				continue
			}
			u := (x - centers[j]) / h
			s += float64(float64(c) * math.Exp(-0.5*u*u))
		}
		out[i] = s * norm
	}
	return out
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth for a
// histogram.
func SilvermanBandwidth(centers []float64, counts []uint64) float64 {
	_, std, total := WeightedMeanStd(centers, counts)
	if total == 0 {
		return 0
	}
	return 1.06 * std * math.Pow(float64(total), -0.2)
}
