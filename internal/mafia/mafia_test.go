package mafia

import (
	"errors"
	"testing"

	"keybin2/internal/cluster"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func TestFitTwoBlobs2D(t *testing.T) {
	spec := &synth.MixtureSpec{Dims: 2, Components: []synth.Component{
		{Mean: []float64{-5, -5}, Std: []float64{0.5, 0.5}, Weight: 1},
		{Mean: []float64{5, 5}, Std: []float64{0.5, 0.5}, Weight: 1},
	}}
	data, truth := spec.Sample(4000, xrand.New(1))
	res, err := Fit(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, l := range res.Labels {
		if l != cluster.Noise {
			labeled++
		}
	}
	if float64(labeled)/float64(len(res.Labels)) < 0.7 {
		t.Fatalf("only %d/%d points labeled", labeled, len(res.Labels))
	}
	p, _, _ := eval.PrecisionRecallF1(res.Labels, truth)
	if p < 0.95 {
		t.Fatalf("precision %.3f", p)
	}
	if len(res.Units) == 0 || res.Units[0] == 0 {
		t.Fatalf("units per level %v", res.Units)
	}
}

func TestFitFindsSubspace(t *testing.T) {
	// Clusters live in dims 0-1; dims 2-3 are uniform noise. MAFIA should
	// report subspaces that include the informative dimensions.
	rng := xrand.New(2)
	m := 4000
	data := linalg.NewMatrix(m, 4)
	truth := make([]int, m)
	for i := 0; i < m; i++ {
		c := i % 2
		truth[i] = c
		center := -4.0
		if c == 1 {
			center = 4
		}
		data.Set(i, 0, rng.Gaussian(center, 0.4))
		data.Set(i, 1, rng.Gaussian(center, 0.4))
		data.Set(i, 2, rng.Uniform(-10, 10))
		data.Set(i, 3, rng.Uniform(-10, 10))
	}
	res, err := Fit(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subspaces) == 0 {
		t.Fatal("no subspace clusters")
	}
	informative := 0
	for _, dims := range res.Subspaces {
		for _, d := range dims {
			if d == 0 || d == 1 {
				informative++
				break
			}
		}
	}
	if informative == 0 {
		t.Fatalf("no cluster uses informative dims: %v", res.Subspaces)
	}
}

func TestBudgetAbort(t *testing.T) {
	// High-dimensional data with dense structure everywhere explodes the
	// candidate lattice; with a small budget the fit must abort — the
	// paper's GPUMAFIA "did not converge" behaviour.
	spec := synth.AutoMixture(4, 30, 6, 1, xrand.New(3))
	data, _ := spec.Sample(1000, xrand.New(4))
	_, err := Fit(data, Config{MaxCandidates: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(linalg.NewMatrix(0, 2), Config{}); err == nil {
		t.Fatal("empty data must fail")
	}
}

func TestJoinCondition(t *testing.T) {
	a := unit{dims: []int{0, 1}, bins: []int{3, 5}}
	b := unit{dims: []int{0, 2}, bins: []int{3, 7}}
	j, ok := join(a, b)
	if !ok {
		t.Fatal("join should succeed on shared (0,3)")
	}
	if len(j.dims) != 3 || j.dims[0] != 0 || j.dims[1] != 1 || j.dims[2] != 2 {
		t.Fatalf("joined %v", j)
	}
	// Conflicting bin on the shared dim: no join.
	c := unit{dims: []int{0, 2}, bins: []int{4, 7}}
	if _, ok := join(a, c); ok {
		t.Fatal("conflicting join must fail")
	}
	// Disjoint dims at level 2 → would produce level 4: no join.
	d := unit{dims: []int{2, 3}, bins: []int{1, 1}}
	if _, ok := join(a, d); ok {
		t.Fatal("disjoint join must fail")
	}
}

func TestAdjacent(t *testing.T) {
	a := unit{dims: []int{0, 1}, bins: []int{3, 5}}
	b := unit{dims: []int{0, 1}, bins: []int{3, 6}}
	if !adjacent(a, b) {
		t.Fatal("consecutive bins share a face")
	}
	c := unit{dims: []int{0, 1}, bins: []int{3, 8}}
	if adjacent(a, c) {
		t.Fatal("distant bins are not adjacent")
	}
	d := unit{dims: []int{0, 2}, bins: []int{3, 5}}
	if adjacent(a, d) {
		t.Fatal("different subspaces are not adjacent")
	}
	e := unit{dims: []int{0, 1}, bins: []int{4, 6}}
	if adjacent(a, e) {
		t.Fatal("diagonal units are not adjacent")
	}
}

func TestAdaptiveGridCoverage(t *testing.T) {
	rng := xrand.New(5)
	col := make([]float64, 2000)
	for i := range col {
		col[i] = rng.Gaussian(0, 1)
	}
	grid := adaptiveGrid(col)
	// Every value must locate into a bin, and counts must sum to len(col).
	total := 0
	for _, b := range grid {
		total += b.count
	}
	if total != len(col) {
		t.Fatalf("grid covers %d of %d points", total, len(col))
	}
	for _, v := range col {
		idx := locateBin(grid, v)
		if v < grid[idx].lo || v >= grid[idx].hi {
			t.Fatalf("value %v located to bin [%v,%v)", v, grid[idx].lo, grid[idx].hi)
		}
	}
	// The merge step must actually merge: far fewer bins than fineBins.
	if len(grid) >= 100 {
		t.Fatalf("adaptive grid has %d bins (no merging)", len(grid))
	}
	// Constant column: degenerate range handled.
	constant := make([]float64, 100)
	g2 := adaptiveGrid(constant)
	if len(g2) == 0 {
		t.Fatal("constant column grid empty")
	}
}
