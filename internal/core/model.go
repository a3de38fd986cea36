package core

import (
	"cmp"
	"encoding/binary"
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

	// codec packs segment tuples into uint64 keys; lab is the fused
	// bin→segment labeling kernel. When the packed width overflows 64 bits
	// (codec.fits == false) the model falls back to string tuple keys and
	// labelOfStr. Both are rebuilt deterministically from Parts/Collapsed,
	// so they never travel on the wire.
	codec      tupleCodec
	lab        *labeler
	labelOf    map[uint64]int
	labelOfStr map[string]int

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

// packSegments serializes a segment tuple into a string map key. It is the
// fallback codec for tuples whose packed width overflows 64 bits (see
// tupleCodec); the hot paths use packed uint64 keys. Collapsed dimensions
// contribute a constant so they do not fragment clusters.
func packSegments(segs []int) string {
	buf := make([]byte, 2*len(segs))
	for j, s := range segs {
		binary.LittleEndian.PutUint16(buf[2*j:], uint16(s))
	}
	return string(buf)
}

func unpackSegments(s string) []int {
	out := make([]int, len(s)/2)
	b := []byte(s)
	for j := range out {
		out[j] = int(binary.LittleEndian.Uint16(b[2*j:]))
	}
	return out
}

// AssignProjected labels a point already expressed in the projected
// subspace. Unknown tuples return cluster.Noise. The packed-key path is
// allocation-free.
func (m *Model) AssignProjected(projected []float64) int {
	if m.codec.fits {
		if l, ok := m.labelOf[m.lab.key(projected)]; ok {
			return l
		}
		return cluster.Noise
	}
	segs := make([]int, len(m.Set.Dims))
	segmentsOfRow(projected, m.Set, m.Parts, m.Collapsed, segs)
	if l, ok := m.labelOfStr[packSegments(segs)]; ok {
		return l
	}
	return cluster.Noise
}

// Assign projects a raw point through the model's projection and labels
// it. With NoProjection models the point is binned directly.
func (m *Model) Assign(x []float64) (int, error) {
	if m.Projection == nil {
		return m.AssignProjected(x), nil
	}
	proj, err := linalg.VecMul(x, m.Projection)
	if err != nil {
		return cluster.Noise, fmt.Errorf("core: assign: %w", err)
	}
	return m.AssignProjected(proj), nil
}

// buildLabels orders the occupied tuples by mass (descending, ties by key
// ascending for determinism — packed keys put dimension 0 in the high bits,
// so numeric order matches the string codec's byte order), applies the dust
// filter and cap, and returns the surviving clusters. installLabels then
// derives the tuple→label map from the cluster list.
func buildLabels(tuples tupleCounts, codec tupleCodec, dims, minSize, maxClusters int) []quality.Cluster {
	if tuples.u != nil {
		var entries []tupleEntry[uint64]
		for _, c := range tuples.u.cells {
			if n := uint64(c.mass); int(n) >= minSize {
				entries = append(entries, tupleEntry[uint64]{c.key, n})
			}
		}
		return heaviest(entries, maxClusters, func(key uint64) []int {
			segs := make([]int, dims)
			codec.unpack(key, segs)
			return segs
		})
	}
	var entries []tupleEntry[string]
	for k, n := range tuples.s {
		if int(n) >= minSize {
			entries = append(entries, tupleEntry[string]{k, n})
		}
	}
	return heaviest(entries, maxClusters, unpackSegments)
}

type tupleEntry[K cmp.Ordered] struct {
	key  K
	mass uint64
}

// heaviest is buildLabels' order and cap over either key type: the
// maxClusters heaviest tuples as clusters, their segments unpacked.
func heaviest[K cmp.Ordered](entries []tupleEntry[K], maxClusters int, segments func(K) []int) []quality.Cluster {
	slices.SortFunc(entries, func(a, b tupleEntry[K]) int {
		if a.mass != b.mass {
			return cmp.Compare(b.mass, a.mass)
		}
		return cmp.Compare(a.key, b.key)
	})
	clusters := make([]quality.Cluster, min(len(entries), maxClusters))
	for i := range clusters {
		clusters[i] = quality.Cluster{Segments: segments(entries[i].key), Mass: entries[i].mass}
	}
	return clusters
}

// installLabels (re)builds the tuple→label map: cluster i's segment tuple
// maps to labels[i]. The streaming driver re-installs with remapped labels
// to keep cluster identities stable across refits.
func (m *Model) installLabels(labels []int) {
	if m.codec.fits {
		lm := make(map[uint64]int, len(m.Clusters))
		for i, cl := range m.Clusters {
			lm[m.codec.pack(cl.Segments)] = labels[i]
		}
		m.labelOf, m.labelOfStr = lm, nil
		return
	}
	sm := make(map[string]int, len(m.Clusters))
	for i, cl := range m.Clusters {
		sm[packSegments(cl.Segments)] = labels[i]
	}
	m.labelOf, m.labelOfStr = nil, sm
}

// installedLabels is the inverse of installLabels: the label currently
// mapped to each cluster, in cluster order. For a freshly fitted model this
// is [0, 1, …, n); stream-published models may carry remapped ids from
// label stabilization.
func (m *Model) installedLabels() []int {
	out := make([]int, len(m.Clusters))
	for i, cl := range m.Clusters {
		if m.labelOf != nil {
			out[i] = m.labelOf[m.codec.pack(cl.Segments)]
		} else {
			out[i] = m.labelOfStr[packSegments(cl.Segments)]
		}
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
