package core

import (
	"strings"
	"testing"

	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/quality"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func TestStreamSketchSizeBounded(t *testing.T) {
	st, err := NewStream(StreamConfig{
		Config: Config{Seed: 120, Trials: 2}, Dims: 6,
		RawRanges: fixedRanges(6, -12, 12), Period: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(121))
	src := spec.Stream(0, xrand.New(122))
	var sizes []int
	for i := 0; i < 6000; i++ {
		x, _, _ := src.Next()
		if _, err := st.Ingest(x); err != nil {
			t.Fatal(err)
		}
		if (i+1)%2000 == 0 {
			_, keys := st.SketchSize()
			sizes = append(sizes, keys)
		}
	}
	bins, _ := st.SketchSize()
	if bins == 0 {
		t.Fatal("no bins reported")
	}
	// Distinct keys must plateau: the last interval's growth is a small
	// fraction of the first's (bounded by occupied bins, not points).
	if len(sizes) != 3 {
		t.Fatalf("sizes %v", sizes)
	}
	firstGrowth := sizes[0]
	lastGrowth := sizes[2] - sizes[1]
	if lastGrowth*4 > firstGrowth {
		t.Fatalf("sketch still growing linearly: %v", sizes)
	}
}

func TestPartitionSetAllCollapsedFallback(t *testing.T) {
	// A set where every dimension is a clean Gaussian: collapsing would
	// remove them all, so the fallback must re-partition everything.
	set, err := histogram.NewSet([]float64{-5, -5}, []float64{5, 5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(123)
	for i := 0; i < 20000; i++ {
		set.AddPoint([]float64{rng.Gaussian(0, 1), rng.Gaussian(0, 1)})
	}
	for j, h := range set.Dims {
		if !partition.Collapse(h) {
			t.Fatalf("dimension %d does not collapse: the fallback is not exercised", j)
		}
	}
	parts, collapsed := partitionSet(set)
	for j, c := range collapsed {
		if c {
			t.Fatalf("dimension %d still collapsed after fallback", j)
		}
		if parts[j].Segments() < 1 {
			t.Fatalf("dimension %d has no segments", j)
		}
	}
}

func TestAssessOnCollapsedDimensions(t *testing.T) {
	// A model with one collapsed dimension still assesses: the collapsed
	// dimension contributes a single full-range segment.
	set, err := histogram.NewSet([]float64{0, 0}, []float64{100, 100}, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(124)
	for i := 0; i < 10000; i++ {
		c := 20.0
		if i%2 == 0 {
			c = 80
		}
		set.AddPoint([]float64{rng.Gaussian(c, 5), rng.Gaussian(50, 10)})
	}
	parts := []partition.Result{
		partition.Partition(set.Dims[0], partition.DiscreteOpt),
		{}, // collapsed: no cuts
	}
	clusters := []quality.Cluster{
		{Segments: []int{0, 0}, Mass: 5000},
		{Segments: []int{1, 0}, Mass: 5000},
	}
	a, err := quality.Assess(set, parts, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if a.CH <= 0 {
		t.Fatalf("CH %v with a collapsed dimension", a.CH)
	}
}

func TestConfigValidateNegativeDepth(t *testing.T) {
	if (Config{Depth: -1}).Validate() == nil {
		t.Fatal("negative depth must fail")
	}
	if (Config{TargetDims: -2}).Validate() == nil {
		t.Fatal("negative target dims must fail")
	}
}

// TestFitRefusesDepthPastUint16 pins the one depth bound: a fit refuses a
// tree deeper than its uint16 bins hold, and Validate takes the deepest
// one they do.
func TestFitRefusesDepthPastUint16(t *testing.T) {
	data := linalg.NewMatrix(64, 3)
	rng := xrand.New(5)
	for i := range data.Data {
		data.Data[i] = rng.Norm()
	}
	if _, _, err := Fit(data, Config{Seed: 1, Depth: maxDepth + 1}); err == nil || !strings.Contains(err.Error(), "deeper than 16") {
		t.Fatalf("depth 17 fit: %v", err)
	}
	if err := (Config{Depth: maxDepth}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterCentroidCollapsedDim(t *testing.T) {
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(125))
	data, _ := spec.Sample(3000, xrand.New(126))
	model, _, err := Fit(data, Config{Seed: 127})
	if err != nil {
		t.Fatal(err)
	}
	for q := range model.Clusters {
		c := clusterCentroid(model, q)
		if len(c) != len(model.Set.Dims) {
			t.Fatalf("centroid width %d", len(c))
		}
		for j, v := range c {
			h := model.Set.Dims[j]
			if v < h.Min || v > h.Max {
				t.Fatalf("centroid dim %d = %v outside [%v, %v]", j, v, h.Min, h.Max)
			}
		}
	}
}

func TestSnapCutsToSketch(t *testing.T) {
	s := &streamShape{sketchShift: 4} // cells of 16 finest bins
	p := partition.Result{Cuts: []int{5, 17, 30, 510}}
	snapped := s.snapCutsToSketch(p, 512)
	// 5→15, 17→31, 30→31 (dedup), 510→511 dropped (last bin).
	want := []int{15, 31}
	if len(snapped.Cuts) != len(want) {
		t.Fatalf("cuts %v", snapped.Cuts)
	}
	for i := range want {
		if snapped.Cuts[i] != want[i] {
			t.Fatalf("cuts %v want %v", snapped.Cuts, want)
		}
	}
	// Invariant: every cut is the last bin of a sketch cell.
	for _, c := range snapped.Cuts {
		if (c+1)%16 != 0 {
			t.Fatalf("cut %d not cell-aligned", c)
		}
	}
	// shift 0 is identity.
	s0 := &streamShape{sketchShift: 0}
	p0 := partition.Result{Cuts: []int{5, 17}}
	if got := s0.snapCutsToSketch(p0, 512); len(got.Cuts) != 2 || got.Cuts[0] != 5 {
		t.Fatalf("identity snap %v", got.Cuts)
	}
}

func TestSketchBinCenter(t *testing.T) {
	s := &streamShape{sketchShift: 3} // cells of 8
	if got := s.sketchBinCenter(0); got != 4 {
		t.Fatalf("cell 0 center %d", got)
	}
	if got := s.sketchBinCenter(5); got != 44 {
		t.Fatalf("cell 5 center %d", got)
	}
	s0 := &streamShape{}
	if got := s0.sketchBinCenter(7); got != 7 {
		t.Fatalf("shift-0 center %d", got)
	}
}

func TestDefaultDepth(t *testing.T) {
	if d := DefaultDepth(1); d != 3 {
		t.Fatalf("tiny m depth %d", d)
	}
	// m = 80,000: log2 ≈ 16.3 → target ≈ 289 bins → depth 9 (512 bins)
	d := DefaultDepth(80000)
	if d < 8 || d > 10 {
		t.Fatalf("80k depth %d", d)
	}
	// monotone nondecreasing in m
	prev := 0
	for _, m := range []int{10, 100, 1000, 10000, 100000, 10000000} {
		d := DefaultDepth(m)
		if d < prev {
			t.Fatalf("depth not monotone at m=%d", m)
		}
		prev = d
	}
	if DefaultDepth(1<<40) != 10 {
		t.Fatal("huge m must clamp to 10")
	}
}
