package quality

import (
	"testing"

	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/xrand"
)

// buildTrial bins 2-D points into a set, partitions both dimensions, and
// derives the occupied clusters from (segX, segY) pairs.
func buildTrial(t *testing.T, pts [][2]float64) (*histogram.Set, []partition.Result, []Cluster) {
	t.Helper()
	set, err := histogram.NewSet([]float64{0, 0}, []float64{100, 100}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		set.AddPoint([]float64{p[0], p[1]})
	}
	parts := []partition.Result{
		partition.Partition(set.Dims[0], partition.DiscreteOpt),
		partition.Partition(set.Dims[1], partition.DiscreteOpt),
	}
	counts := map[[2]int]uint64{}
	for _, p := range pts {
		sx := parts[0].SegmentOf(set.Dims[0].Bin(p[0]))
		sy := parts[1].SegmentOf(set.Dims[1].Bin(p[1]))
		counts[[2]int{sx, sy}]++
	}
	var clusters []Cluster
	for seg, n := range counts {
		clusters = append(clusters, Cluster{Segments: []int{seg[0], seg[1]}, Mass: n})
	}
	return set, parts, clusters
}

func gaussianBlob(rng *xrand.Stream, cx, cy float64, n int) [][2]float64 {
	out := make([][2]float64, n)
	for i := range out {
		out[i] = [2]float64{rng.Gaussian(cx, 2), rng.Gaussian(cy, 2)}
	}
	return out
}

func TestSeparatedBeatsOverlapping(t *testing.T) {
	rng := xrand.New(1)
	// Trial A: two well-separated blobs.
	sep := append(gaussianBlob(rng, 20, 20, 4000), gaussianBlob(rng, 80, 80, 4000)...)
	setA, partsA, clustersA := buildTrial(t, sep)
	a, err := Assess(setA, partsA, clustersA)
	if err != nil {
		t.Fatal(err)
	}
	// Trial B: two nearly-overlapping blobs (typically a single cluster).
	ovl := append(gaussianBlob(rng, 48, 48, 4000), gaussianBlob(rng, 55, 55, 4000)...)
	setB, partsB, clustersB := buildTrial(t, ovl)
	b, err := Assess(setB, partsB, clustersB)
	if err != nil {
		t.Fatal(err)
	}
	if a.CH <= b.CH {
		t.Fatalf("separated CH %v should beat overlapping CH %v", a.CH, b.CH)
	}
	if a.Clusters < 2 {
		t.Fatalf("separated trial found %d clusters", a.Clusters)
	}
	if a.Between <= 0 || a.Within <= 0 {
		t.Fatalf("dispersions: between %v within %v", a.Between, a.Within)
	}
}

func TestSingleClusterScoresZero(t *testing.T) {
	rng := xrand.New(2)
	blob := gaussianBlob(rng, 50, 50, 2000)
	set, parts, clusters := buildTrial(t, blob)
	a, err := Assess(set, parts, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if a.Clusters > 1 {
		t.Skipf("partitioner split a single blob into %d at this seed", a.Clusters)
	}
	if a.CH != 0 {
		t.Fatalf("single-cluster CH %v want 0", a.CH)
	}
}

func TestTwoClusterNotZeroed(t *testing.T) {
	// The clamp on log2(|Q|-1) must keep |Q| = 2 solutions scoreable.
	rng := xrand.New(3)
	pts := append(gaussianBlob(rng, 15, 50, 3000), gaussianBlob(rng, 85, 50, 3000)...)
	set, parts, clusters := buildTrial(t, pts)
	a, err := Assess(set, parts, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if a.Clusters == 2 && a.CH <= 0 {
		t.Fatalf("two-cluster CH %v must be positive", a.CH)
	}
}

func TestAssessValidation(t *testing.T) {
	set, _ := histogram.NewSet([]float64{0}, []float64{1}, 3)
	if _, err := Assess(set, nil, []Cluster{{Segments: []int{0}}, {Segments: []int{0}}}); err == nil {
		t.Fatal("partition count mismatch must fail")
	}
	parts := []partition.Result{{}}
	bad := []Cluster{{Segments: []int{0, 1}}, {Segments: []int{0, 1}}}
	if _, err := Assess(set, parts, bad); err == nil {
		t.Fatal("cluster segment width mismatch must fail")
	}
	oob := []Cluster{{Segments: []int{5}}, {Segments: []int{0}}}
	if _, err := Assess(set, parts, oob); err == nil {
		t.Fatal("out-of-range segment must fail")
	}
}

func TestSelectBest(t *testing.T) {
	if SelectBest(nil) != -1 {
		t.Fatal("empty input")
	}
	as := []Assessment{{CH: 1}, {CH: 5}, {CH: 5}, {CH: 2}}
	if got := SelectBest(as); got != 1 {
		t.Fatalf("SelectBest=%d want 1 (first of ties)", got)
	}
}

func TestExactCHBasics(t *testing.T) {
	// Two tight far-apart blobs: enormous CH. One blob split arbitrarily
	// in half: tiny CH.
	rng := xrand.New(9)
	pts := gaussianBlob(rng, 10, 10, 500)
	pts = append(pts, gaussianBlob(rng, 90, 90, 500)...)
	m := toMatrix(pts)
	good := make([]int, 1000)
	for i := 500; i < 1000; i++ {
		good[i] = 1
	}
	arbitrary := make([]int, 1000)
	for i := range arbitrary {
		arbitrary[i] = i % 2 // splits both blobs randomly
	}
	chGood := ExactCH(m, good)
	chBad := ExactCH(m, arbitrary)
	if chGood < 100*chBad {
		t.Fatalf("good %v should dwarf arbitrary %v", chGood, chBad)
	}
	// degenerate cases
	if ExactCH(m, make([]int, 1000)) != 0 {
		t.Fatal("single cluster CH must be 0")
	}
	noise := make([]int, 1000)
	for i := range noise {
		noise[i] = -1
	}
	if ExactCH(m, noise) != 0 {
		t.Fatal("all-noise CH must be 0")
	}
}

func toMatrix(pts [][2]float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(pts), 2)
	for i, p := range pts {
		m.Set(i, 0, p[0])
		m.Set(i, 1, p[1])
	}
	return m
}

// The histogram-space index must rank trials the same way the exact
// point-space index does: separated data scores above overlapping data
// under both.
func TestHistogramCHTracksExactCH(t *testing.T) {
	rng := xrand.New(10)
	sep := append(gaussianBlob(rng, 20, 20, 3000), gaussianBlob(rng, 80, 80, 3000)...)
	ovl := append(gaussianBlob(rng, 45, 45, 3000), gaussianBlob(rng, 55, 55, 3000)...)

	type trial struct {
		hist  float64
		exact float64
	}
	assess := func(pts [][2]float64) trial {
		set, parts, clusters := buildTrial(t, pts)
		a, err := Assess(set, parts, clusters)
		if err != nil {
			t.Fatal(err)
		}
		// point labels via the segment tuples
		m := toMatrix(pts)
		labels := make([]int, len(pts))
		ids := map[[2]int]int{}
		for i, p := range pts {
			sx := parts[0].SegmentOf(set.Dims[0].Bin(p[0]))
			sy := parts[1].SegmentOf(set.Dims[1].Bin(p[1]))
			key := [2]int{sx, sy}
			id, ok := ids[key]
			if !ok {
				id = len(ids)
				ids[key] = id
			}
			labels[i] = id
		}
		return trial{hist: a.CH, exact: ExactCH(m, labels)}
	}
	ts, to := assess(sep), assess(ovl)
	if (ts.hist > to.hist) != (ts.exact > to.exact) {
		t.Fatalf("rank disagreement: hist %v vs %v, exact %v vs %v",
			ts.hist, to.hist, ts.exact, to.exact)
	}
	if ts.hist <= to.hist {
		t.Fatalf("separated should win: %v vs %v", ts.hist, to.hist)
	}
}
