// Package eval implements the clustering metrics the paper reports (§4):
// pairwise precision, recall, and F1 computed from a contingency table in
// O(#cells) rather than by enumerating point pairs, plus adjusted Rand
// index, normalized mutual information, and purity for cross-checks, and a
// repeated-run harness producing the "mean ± 95% CI over R runs" rows of
// Tables 1 and 2.
package eval

import (
	"math"

	"keybin2/internal/cluster"
	"keybin2/internal/stats"
)

// choose2 returns C(n,2) as float64.
func choose2(n int) float64 { return float64(n) * float64(n-1) / 2 }

// PairCounts returns the pairwise confusion counts between a predicted and
// a true labeling: tp counts pairs placed together by both, fp pairs placed
// together by pred but not truth, fn the converse. Noise points (label -1)
// act as singleton clusters: they co-occur with nothing.
func PairCounts(pred, truth []int) (tp, fp, fn float64) {
	c := cluster.NewContingency(pred, truth)
	var same float64
	for _, row := range c.Cells {
		for _, n := range row {
			same += choose2(n)
		}
	}
	var predPairs, truthPairs float64
	for _, n := range c.ASizes {
		predPairs += choose2(n)
	}
	for _, n := range c.BSizes {
		truthPairs += choose2(n)
	}
	return same, predPairs - same, truthPairs - same
}

// PrecisionRecallF1 returns the paper's §4 metrics: precision is the
// ability not to co-cluster unrelated points, recall the ability to find
// all truly co-clustered pairs, and F1 their harmonic mean. Degenerate
// cases (no positive pairs) yield 0.
func PrecisionRecallF1(pred, truth []int) (precision, recall, f1 float64) {
	tp, fp, fn := PairCounts(pred, truth)
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// ARI returns the adjusted Rand index between two labelings (1 = identical
// partitions, ~0 = random agreement). Noise points are treated as
// singletons via the contingency construction.
func ARI(pred, truth []int) float64 {
	c := cluster.NewContingency(pred, truth)
	var sumCells, sumA, sumB float64
	for _, row := range c.Cells {
		for _, n := range row {
			sumCells += choose2(n)
		}
	}
	for _, n := range c.ASizes {
		sumA += choose2(n)
	}
	for _, n := range c.BSizes {
		sumB += choose2(n)
	}
	total := choose2(c.N)
	if total == 0 {
		return 1
	}
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1
	}
	return (sumCells - expected) / (maxIdx - expected)
}

// NMI returns the normalized mutual information between two labelings
// (arithmetic normalization), in [0,1]. Noise points are excluded.
func NMI(pred, truth []int) float64 {
	c := cluster.NewContingency(pred, truth)
	var n float64
	for _, row := range c.Cells {
		for _, v := range row {
			n += float64(v)
		}
	}
	if n == 0 {
		return 0
	}
	var mi float64
	for a, row := range c.Cells {
		pa := float64(c.ASizes[a]) / n
		for b, v := range row {
			pab := float64(v) / n
			pb := float64(c.BSizes[b]) / n
			if pab > 0 && pa > 0 && pb > 0 {
				mi += pab * math.Log(pab/(pa*pb))
			}
		}
	}
	entropy := func(sizes map[int]int) float64 {
		var h float64
		for _, s := range sizes {
			p := float64(s) / n
			if p > 0 {
				h -= p * math.Log(p)
			}
		}
		return h
	}
	ha, hb := entropy(c.ASizes), entropy(c.BSizes)
	if ha+hb == 0 {
		return 1
	}
	return 2 * mi / (ha + hb)
}

// Purity returns the fraction of non-noise points whose predicted cluster's
// majority true label matches their own.
func Purity(pred, truth []int) float64 {
	c := cluster.NewContingency(pred, truth)
	var n, correct float64
	for _, row := range c.Cells {
		best := 0
		for _, v := range row {
			n += float64(v)
			if v > best {
				best = v
			}
		}
		correct += float64(best)
	}
	if n == 0 {
		return 0
	}
	return correct / n
}

// RunResult is one repetition's outcome in the experiment harness.
type RunResult struct {
	Clusters  float64
	Precision float64
	Recall    float64
	F1        float64
	Seconds   float64
}

// Aggregate is the "mean ± 95% CI" row the paper's tables print.
type Aggregate struct {
	Runs                 int
	Clusters, ClustersCI float64
	Precision, PrecCI    float64
	Recall, RecCI        float64
	F1, F1CI             float64
	Seconds, SecondsCI   float64
}

// Repeat runs fn `runs` times and aggregates the per-run metrics. fn
// receives the run index (use it to derive per-run seeds).
func Repeat(runs int, fn func(run int) RunResult) Aggregate {
	res := make([]RunResult, runs)
	for r := 0; r < runs; r++ {
		res[r] = fn(r)
	}
	return AggregateRuns(res)
}

// AggregateRuns folds per-run results into a table row.
func AggregateRuns(res []RunResult) Aggregate {
	pick := func(f func(RunResult) float64) []float64 {
		out := make([]float64, len(res))
		for i, r := range res {
			out[i] = f(r)
		}
		return out
	}
	var a Aggregate
	a.Runs = len(res)
	a.Clusters, a.ClustersCI = stats.MeanCI(pick(func(r RunResult) float64 { return r.Clusters }))
	a.Precision, a.PrecCI = stats.MeanCI(pick(func(r RunResult) float64 { return r.Precision }))
	a.Recall, a.RecCI = stats.MeanCI(pick(func(r RunResult) float64 { return r.Recall }))
	a.F1, a.F1CI = stats.MeanCI(pick(func(r RunResult) float64 { return r.F1 }))
	a.Seconds, a.SecondsCI = stats.MeanCI(pick(func(r RunResult) float64 { return r.Seconds }))
	return a
}

// Evaluate bundles labels + elapsed time into a RunResult.
func Evaluate(pred, truth []int, seconds float64) RunResult {
	p, r, f1 := PrecisionRecallF1(pred, truth)
	return RunResult{
		Clusters:  float64(cluster.NumClusters(pred)),
		Precision: p,
		Recall:    r,
		F1:        f1,
		Seconds:   seconds,
	}
}
