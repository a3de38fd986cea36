package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"keybin2/internal/cluster"
	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/quality"
)

// Model is a fitted KeyBin2 clustering: the selected projection, the global
// (merged) histograms of the winning trial, the per-dimension partitions,
// and the mapping from primary-cluster tuples to global labels. A Model can
// label points it has never seen — the in-situ use case.
type Model struct {
	// Projection is the winning trial's matrix (nil when NoProjection).
	Projection *linalg.Matrix
	// Set holds the global per-dimension histograms of the winning trial.
	Set *histogram.Set
	// Parts are the per-dimension partitions (cuts); collapsed dimensions
	// have no cuts.
	Parts []partition.Result
	// Collapsed marks dimensions the Lilliefors test removed from the
	// clustering decision (§3.1).
	Collapsed []bool
	// Clusters are the surviving global clusters, ordered by mass
	// descending; cluster i has global label i.
	Clusters []quality.Cluster
	// Assessment is the winning trial's histogram-CH evaluation.
	Assessment quality.Assessment
	// TrialAssessments holds every bootstrap trial's evaluation (index =
	// trial); the winner is the argmax CH, or for a stream the trial its
	// hysteresis kept.
	TrialAssessments []quality.Assessment
	// Trial is the index of the winning bootstrap trial.
	Trial int

	// lab is the fused bin→segment labeling kernel under the trial's tuple
	// layout; tuples holds the clusters' keys, and the tuple in cell c maps
	// to labelOf[c]. All three are rebuilt deterministically from
	// Parts/Collapsed and the cluster list, so they never travel on the wire.
	lab     *labeler
	tuples  *flatTable
	labelOf []int
	// binLo and binIW are each dimension's Min and InvWidth from Set: what
	// linalg.BinRows bins a projected point by, set with lab.
	binLo, binIW []float64

	// packed is Projection laid out for linalg.MulPacked, set with it.
	packed *linalg.Packed
}

// K returns the number of clusters the model found.
func (m *Model) K() int { return len(m.Clusters) }

// Describe renders a human-readable summary of what the model learned:
// the winning trial, per-dimension partitions (or collapsed status), and
// the clusters with their masses. Intended for CLI/diagnostic output.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "KeyBin2 model: %d clusters, trial %d, histogram-CH %.2f\n",
		m.K(), m.Trial, m.Assessment.CH)
	for j, h := range m.Set.Dims {
		if m.Collapsed[j] {
			fmt.Fprintf(&b, "  dim %2d: collapsed (no clustering structure)\n", j)
			continue
		}
		cuts := make([]string, len(m.Parts[j].Cuts))
		for i, c := range m.Parts[j].Cuts {
			cuts[i] = fmt.Sprintf("%.3g", h.Center(c)+h.BinWidth()/2)
		}
		fmt.Fprintf(&b, "  dim %2d: range [%.3g, %.3g], %d segments, cuts at [%s]\n",
			j, h.Min, h.Max, m.Parts[j].Segments(), strings.Join(cuts, " "))
	}
	for i, cl := range m.Clusters {
		fmt.Fprintf(&b, "  cluster %2d: mass %d, segments %v\n", i, cl.Mass, cl.Segments)
	}
	return b.String()
}

// equip builds what labels a point from the model's histograms and
// partitions: the labeler under the tuple layout they imply, and each
// dimension's Min and InvWidth for the bin kernel.
func (m *Model) equip() {
	m.lab = binLabeler(tupleLayout(m.Parts, m.Collapsed), m.Set.Dims[0].Bins(), segmentField(m.Parts, m.Collapsed))
	for _, h := range m.Set.Dims {
		m.binLo, m.binIW = append(m.binLo, h.Min), append(m.binIW, h.InvWidth())
	}
}

// labelProjected labels the rows of x, points in the projected subspace:
// it bins them into bins (room for len(x)) under the model's histograms by
// Hist.Bin's arithmetic, then runs the label loop over those.
func (m *Model) labelProjected(labels []int, keys []uint64, bins []uint16, x []float64) {
	cols := len(m.binLo)
	linalg.BinRows(bins[:len(x)], x, cols, m.binLo, m.binIW, m.Set.Dims[0].Bins())
	m.labelRows(labels, keys, bins, 0, cols)
}

// labelRows is the one label loop: it labels len(labels) rows of stored
// bins, row i's N_rp bins starting first+i·stride bins into bins, through
// keys (room for len(labels) keys). Unknown tuples get cluster.Noise.
func (m *Model) labelRows(labels []int, keys []uint64, bins []uint16, first, stride int) {
	words := m.lab.words()
	m.lab.binKeys(keys, bins[:len(labels)*stride], first, stride)
	for i := range labels {
		labels[i] = m.labelOfKey(keys[i*words : (i+1)*words])
	}
}

// labelOfKey is the label of a tuple key, cluster.Noise for a tuple no
// cluster holds.
func (m *Model) labelOfKey(key []uint64) int {
	if c, ok := m.tuples.find(key); ok {
		return m.labelOf[c]
	}
	return cluster.Noise
}

// Assign projects a raw point through the model's projection and labels
// it, as a one-row AssignBatch: a point gets the label a batch holding it
// would. With NoProjection models the point is binned directly.
func (m *Model) Assign(x []float64) (int, error) {
	labels, err := m.AssignBatch(&linalg.Matrix{Rows: 1, Cols: len(x), Data: x}, 1)
	if err != nil {
		return cluster.Noise, err
	}
	return labels[0], nil
}

// buildLabels orders the occupied tuples by mass (descending, ties by key
// ascending for determinism — the layout puts dimension 0 in the high bits,
// so key order is lexicographic segment order), applies the dust filter and
// cap, and returns the surviving clusters. installLabels then derives the
// tuple→label map from the cluster list.
func buildLabels(tuples *flatTable, layout keyLayout, minSize, maxClusters int) []quality.Cluster {
	var heavy []int
	if tuples != nil {
		for c := range tuples.len() {
			if int(uint64(tuples.mass(c))) >= minSize {
				heavy = append(heavy, c)
			}
		}
	}
	slices.SortFunc(heavy, func(a, b int) int {
		if ma, mb := tuples.mass(a), tuples.mass(b); ma != mb {
			return cmp.Compare(mb, ma)
		}
		return slices.Compare(tuples.key(a), tuples.key(b))
	})
	clusters := make([]quality.Cluster, min(len(heavy), maxClusters))
	for i := range clusters {
		c := heavy[i]
		clusters[i] = quality.Cluster{Segments: layout.unpack(tuples.key(c)), Mass: uint64(tuples.mass(c))}
	}
	return clusters
}

// installLabels (re)builds the tuple→label map: cluster i's segment tuple
// maps to labels[i] (the last cluster's label, should a decoded model list
// one tuple twice). The streaming driver re-installs with remapped labels
// to keep cluster identities stable across refits.
func (m *Model) installLabels(labels []int) {
	m.tuples = &flatTable{words: m.lab.words()}
	m.labelOf = nil
	key := make([]uint64, m.lab.words())
	for i, cl := range m.Clusters {
		m.lab.layout.pack(key, cl.Segments)
		if c := m.tuples.add(key, 0); c < len(m.labelOf) {
			m.labelOf[c] = labels[i]
		} else {
			m.labelOf = append(m.labelOf, labels[i])
		}
	}
}

// installedLabels is the inverse of installLabels: the label currently
// mapped to each cluster, in cluster order. For a freshly fitted model this
// is [0, 1, …, n); stream-published models may carry remapped ids from
// label stabilization.
func (m *Model) installedLabels() []int {
	out := make([]int, len(m.Clusters))
	key := make([]uint64, m.lab.words())
	for i, cl := range m.Clusters {
		m.lab.layout.pack(key, cl.Segments)
		out[i] = m.labelOfKey(key)
	}
	return out
}

// identityLabels returns [0, 1, …, n) — the label assignment buildLabels'
// mass ordering implies.
func identityLabels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
