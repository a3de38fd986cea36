// Package partition implements KeyBin2's histogram partitioner (§3.2): the
// step that turns a per-dimension binning histogram into cut points
// separating primary clusters. The paper replaces KeyBin1's density
// threshold with a non-parametric procedure — moving-average smoothing,
// windowed local regression for first/second derivatives, inflection/valley
// candidate detection, and a discrete optimization that keeps the cut
// subset maximizing a dispersion-ratio score.
//
// Two comparator partitioners are included for the ablation the design
// calls out: a Gaussian-KDE-based one (the DENCLUE-style alternative §3.2
// discusses) and the original density-threshold heuristic.
package partition

import (
	"fmt"
	"math"
	"sort"

	"keybin2/internal/histogram"
	"keybin2/internal/stats"
)

// Method selects the partitioning algorithm.
type Method int

const (
	// DiscreteOpt is KeyBin2's partitioner: smoothing + local regression +
	// valley candidates + greedy discrete optimization of the dispersion
	// score.
	DiscreteOpt Method = iota
	// KDE finds valleys of a Gaussian kernel density estimate instead of
	// the moving-average smooth; otherwise identical selection.
	KDE
	// Threshold is KeyBin1's heuristic: cut wherever smoothed density
	// falls below a fraction of the peak.
	Threshold
)

// String names the method for experiment output.
func (m Method) String() string {
	switch m {
	case DiscreteOpt:
		return "discrete-opt"
	case KDE:
		return "kde"
	case Threshold:
		return "threshold"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// The partitioner's constants. The smoothing window w = ⌈√B⌉ (derived per
// call from the histogram's B bins) and the three resolutions
// PartitionMulti searches are §3.2's ("2 to 4 histograms per dimension
// suffice"); the other three are this reproduction's.
const (
	// minProminence filters valley candidates: a valley must dip below
	// the smaller of its two flanking modes by at least this fraction of
	// that mode (see stats.RelativeDip).
	minProminence = 0.3
	// maxCuts caps the cuts per dimension: at most 16 primary clusters.
	maxCuts = 15
	// densityThreshold is the Threshold method's cut level as a fraction
	// of peak density.
	densityThreshold = 0.2
	// levels is the number of resolutions PartitionMulti searches.
	levels = 3
)

// window is the smoothing / regression window for a histogram of nbins
// bins: w = ⌈√B⌉ (§3.2).
func window(nbins int) int {
	return int(math.Ceil(math.Sqrt(float64(nbins))))
}

// Result describes the partition of one dimension.
type Result struct {
	// Cuts holds ascending bin boundaries: a cut at c separates bin c from
	// bin c+1. len(Cuts)+1 equals the number of primary clusters.
	Cuts []int
	// Smoothed is the density curve the partitioner operated on (length =
	// number of bins), exposed for diagnostics and Figure 2 output.
	Smoothed []float64
	// Score is the dispersion-ratio objective of the selected cut set
	// (0 when no cut was found).
	Score float64
}

// Segments returns the number of primary clusters (cuts + 1).
func (r Result) Segments() int { return len(r.Cuts) + 1 }

// SegmentOf maps a finest-level bin index to its primary cluster id in
// [0, Segments()).
func (r Result) SegmentOf(bin int) int {
	return sort.SearchInts(r.Cuts, bin)
}

// Ranges returns each segment's inclusive [lo, hi] bin range for a
// histogram of nbins finest-level bins.
func (r Result) Ranges(nbins int) [][2]int {
	out := make([][2]int, r.Segments())
	lo := 0
	for s := range out {
		hi := nbins - 1
		if s < len(r.Cuts) {
			hi = r.Cuts[s]
		}
		out[s] = [2]int{lo, hi}
		lo = hi + 1
	}
	return out
}

// Partition partitions a histogram's finest level with method m.
func Partition(h *histogram.Hist, m Method) Result {
	return PartitionCounts(h.Counts, m)
}

// PartitionMulti implements §3.2's multi-resolution search: "bins that are
// too large can confound a multimodal distribution; bins that are too small
// inflate the number of clusters — because of this, we produce multiple
// histograms with different bin sizes." It partitions the histogram at
// `levels` consecutive depths (the finest and progressively halved
// resolutions), maps every candidate cut set back onto the finest grid, and
// keeps the one with the best dispersion score there. Every level runs
// DiscreteOpt.
func PartitionMulti(h *histogram.Hist) Result {
	best := Partition(h, DiscreteOpt)
	density := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		density[i] = float64(c)
	}
	bestScore := scoreCuts(density, best.Cuts)
	for l := 1; l < levels; l++ {
		depth := h.Depth - l
		if depth < 3 {
			break
		}
		coarse := PartitionCounts(h.LevelCounts(depth), DiscreteOpt)
		if len(coarse.Cuts) == 0 {
			continue
		}
		// A cut after coarse bin c separates finest bins up to
		// ((c+1) << l) - 1 from the rest.
		mapped := make([]int, len(coarse.Cuts))
		for i, c := range coarse.Cuts {
			mapped[i] = ((c + 1) << uint(l)) - 1
		}
		if s := scoreCuts(density, mapped); s > bestScore {
			best = Result{Cuts: mapped, Smoothed: best.Smoothed, Score: s}
			bestScore = s
		}
	}
	return best
}

// PartitionCounts partitions a raw count vector. This is the operation the
// coordinator runs on each merged global histogram.
func PartitionCounts(counts []uint64, m Method) Result {
	w := window(len(counts))
	density := make([]float64, len(counts))
	var total float64
	for i, c := range counts {
		density[i] = float64(c)
		total += density[i]
	}
	if total == 0 || len(counts) < 4 {
		return Result{Smoothed: density}
	}

	var smoothed []float64
	switch m {
	case KDE:
		centers := make([]float64, len(counts))
		for i := range centers {
			centers[i] = float64(i)
		}
		smoothed = stats.KDEBinned(centers, counts)
		// rescale to count units so prominence thresholds are comparable
		var s float64
		for _, v := range smoothed {
			s += v
		}
		if s > 0 {
			for i := range smoothed {
				smoothed[i] *= total / s
			}
		}
	default:
		smoothed = stats.MovingAverageCounts(counts, w)
	}

	if m == Threshold {
		return thresholdCuts(smoothed, densityThreshold)
	}

	candidates := valleyCandidates(smoothed, w)
	if len(candidates) == 0 {
		return Result{Smoothed: smoothed}
	}
	cuts, score := optimizeCuts(density, candidates, maxCuts)
	return Result{Cuts: cuts, Smoothed: smoothed, Score: score}
}

// valleyCandidates finds prominent local minima of the smoothed density by
// locating −→+ zero crossings of the locally regressed first derivative and
// confirming them with the second derivative and a prominence filter, all
// over windows of w bins.
func valleyCandidates(smoothed []float64, w int) []int {
	slopes := stats.LocalSlopes(smoothed, w)
	crossings := stats.ZeroCrossings(slopes, +1)
	var out []int
	for _, i := range crossings {
		// Refine to the literal minimum bin near the crossing.
		lo, hi := i-w, i+w
		if lo < 0 {
			lo = 0
		}
		if hi >= len(smoothed) {
			hi = len(smoothed) - 1
		}
		best := i
		for j := lo; j <= hi; j++ {
			if smoothed[j] < smoothed[best] {
				best = j
			}
		}
		// A valley must have positive curvature (density turning back up)
		// and enough prominence to be more than noise. The curvature is
		// only needed at the candidate bins, so the second-derivative fit
		// runs on demand instead of over the whole array.
		if stats.LocalSlopeAt(slopes, w, best) < 0 {
			continue
		}
		if stats.RelativeDip(smoothed, best) < minProminence {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == best {
			continue
		}
		out = append(out, best)
	}
	sort.Ints(out)
	// dedupe after refinement
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// optimizeCuts performs the discrete optimization: starting from no cuts,
// greedily add the candidate that most improves the dispersion-ratio score
// (maximizing between-cluster dispersion while minimizing within-cluster
// dispersion) until no candidate improves it or maxCuts is reached.
func optimizeCuts(density []float64, candidates []int, maxCuts int) ([]int, float64) {
	var cuts []int
	best := scoreCuts(density, cuts)
	for len(cuts) < maxCuts {
		var bestCand int = -1
		bestScore := best
		for _, cand := range candidates {
			if containsInt(cuts, cand) {
				continue
			}
			trial := insertSorted(cuts, cand)
			if s := scoreCuts(density, trial); s > bestScore {
				bestScore, bestCand = s, cand
			}
		}
		if bestCand < 0 {
			break
		}
		cuts = insertSorted(cuts, bestCand)
		best = bestScore
	}
	return cuts, best
}

// scoreCuts evaluates a cut set with a 1-D Calinski–Harabasz-style ratio on
// the histogram: between-segment dispersion over within-segment dispersion,
// scaled by (B−q)/(q−1). Higher is better; zero or one segment scores 0.
func scoreCuts(density []float64, cuts []int) float64 {
	q := len(cuts) + 1
	if q < 2 {
		return 0
	}
	nbins := len(density)
	var totalMass, globalSum float64
	for b, d := range density {
		totalMass += d
		globalSum += float64(b) * d
	}
	if totalMass == 0 {
		return 0
	}
	globalCenter := globalSum / totalMass

	var within, between float64
	lo := 0
	for s := 0; s <= len(cuts); s++ {
		hi := nbins - 1
		if s < len(cuts) {
			hi = cuts[s]
		}
		var mass, sum float64
		for b := lo; b <= hi; b++ {
			mass += density[b]
			sum += float64(b) * density[b]
		}
		if mass > 0 {
			center := sum / mass
			for b := lo; b <= hi; b++ {
				d := float64(b) - center
				within += d * d * density[b]
			}
			dc := center - globalCenter
			between += dc * dc * mass
		}
		lo = hi + 1
	}
	if within <= 0 {
		within = 1e-12
	}
	return (between / within) * float64(nbins-q) / float64(q-1)
}

// thresholdCuts reproduces KeyBin1's heuristic: any maximal run of bins
// whose smoothed density is below threshold·peak separates two clusters;
// the cut is placed at the run's center. Runs touching the histogram edges
// do not cut (they are empty margins, not separations).
func thresholdCuts(smoothed []float64, threshold float64) Result {
	peak := smoothed[stats.ArgMax(smoothed)]
	if peak <= 0 {
		return Result{Smoothed: smoothed}
	}
	level := threshold * peak
	var cuts []int
	runStart := -1
	for i, v := range smoothed {
		if v < level {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			if runStart > 0 { // interior run only
				cuts = append(cuts, (runStart+i-1)/2)
			}
			runStart = -1
		}
	}
	if len(cuts) > maxCuts {
		cuts = cuts[:maxCuts]
	}
	density := smoothed
	return Result{Cuts: cuts, Smoothed: smoothed, Score: scoreCuts(density, cuts)}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func insertSorted(s []int, v int) []int {
	out := make([]int, 0, len(s)+1)
	out = append(out, s...)
	out = append(out, v)
	sort.Ints(out)
	return out
}

// Collapse reports whether a dimension's histogram should be collapsed —
// it carries no clustering structure because its distribution is
// indistinguishable from a single Gaussian (Lilliefors KS test at the
// exact 5 % level, §3.1).
func Collapse(h *histogram.Hist) bool {
	return stats.LooksNormal(h.Centers(), h.Counts, 1)
}
