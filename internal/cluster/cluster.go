// Package cluster holds the label types and bookkeeping shared by KeyBin2
// and the baseline algorithms: dense label canonicalization, cluster size
// accounting, small-cluster (outlier) filtering, and contingency tables —
// the backbone of the pairwise precision/recall evaluation.
//
// Labels are ints; the conventional noise/outlier label is -1.
package cluster

// Noise is the label of points not assigned to any cluster.
const Noise = -1

// Canonicalize relabels labels densely in order of first appearance,
// preserving Noise, and returns the new labels and the number of clusters.
func Canonicalize(labels []int) ([]int, int) {
	out := make([]int, len(labels))
	ids := make(map[int]int)
	next := 0
	for i, l := range labels {
		if l == Noise {
			out[i] = Noise
			continue
		}
		id, ok := ids[l]
		if !ok {
			id = next
			ids[l] = id
			next++
		}
		out[i] = id
	}
	return out, next
}

// Sizes returns the size of each cluster id occurring in labels (Noise
// excluded), as a map.
func Sizes(labels []int) map[int]int {
	out := make(map[int]int)
	for _, l := range labels {
		if l != Noise {
			out[l]++
		}
	}
	return out
}

// NumClusters returns the number of distinct non-noise labels.
func NumClusters(labels []int) int { return len(Sizes(labels)) }

// Contingency is the joint count table between two labelings: Cells[a][b]
// is the number of points labeled a by the first and b by the second.
// Noise points are expanded into singleton clusters by the pair-counting
// functions, not stored here.
type Contingency struct {
	Cells map[int]map[int]int
	// ASizes and BSizes are the marginal cluster sizes (noise excluded).
	ASizes, BSizes map[int]int
	// ANoise and BNoise count noise points under each labeling.
	ANoise, BNoise int
	N              int
}

// NewContingency builds the table for the two equal-length labelings.
func NewContingency(a, b []int) *Contingency {
	c := &Contingency{
		Cells:  make(map[int]map[int]int),
		ASizes: make(map[int]int),
		BSizes: make(map[int]int),
		N:      len(a),
	}
	for i := range a {
		la, lb := a[i], b[i]
		if la == Noise {
			c.ANoise++
		} else {
			c.ASizes[la]++
		}
		if lb == Noise {
			c.BNoise++
		} else {
			c.BSizes[lb]++
		}
		if la == Noise || lb == Noise {
			continue
		}
		row, ok := c.Cells[la]
		if !ok {
			row = make(map[int]int)
			c.Cells[la] = row
		}
		row[lb]++
	}
	return c
}
