// Package mafia implements a MAFIA-style adaptive-grid subspace clustering
// comparator (Goil/Nagesh/Choudhary 1999). The paper attempted to compare
// KeyBin2 against GPUMAFIA and reports it "was unable to converge under our
// particular setup"; this implementation reproduces both the algorithm and
// that failure shape — the bottom-up candidate generation is O(cᵏ) in the
// number of dense dimensions, so a work budget aborts the fit with
// ErrBudget on inputs where the candidate lattice explodes.
//
// Pipeline: per-dimension fine histograms → adaptive bins (merging
// uniform-density neighbors) → dense 1-D units (density above α × the
// uniform expectation) → Apriori-style joins into higher-dimensional
// candidate dense units → support counting → connected dense units form
// clusters; points are labeled by the highest-dimensional cluster that
// contains them.
package mafia

import (
	"errors"
	"fmt"
	"sort"

	"keybin2/internal/cluster"
	"keybin2/internal/linalg"
	"keybin2/internal/unionfind"
)

// ErrBudget reports that candidate generation exceeded the work budget —
// the non-convergence mode the paper observed with GPUMAFIA.
var ErrBudget = errors.New("mafia: candidate lattice exceeded work budget (did not converge)")

// The adaptive grid's and the lattice's constants.
const (
	// alpha is the density threshold multiplier: an adaptive bin is dense
	// when its point count exceeds alpha × the uniform expectation (the
	// MAFIA paper's default).
	alpha = 1.5
	// fineBins is the resolution of the initial per-dimension histogram.
	fineBins = 100
	// mergeTol merges adjacent fine bins whose densities differ by less
	// than this fraction of the dimension's peak.
	mergeTol = 0.2
	// maxSubspaceDims caps the dimensionality of reported subspace
	// clusters.
	maxSubspaceDims = 6
)

// Config tunes a MAFIA fit.
type Config struct {
	// MaxCandidates bounds the total candidate dense units considered
	// before aborting with ErrBudget (0 selects 100000).
	MaxCandidates int
}

func (c Config) withDefaults() Config {
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 100000
	}
	return c
}

// unit is a candidate dense unit: a conjunction of per-dimension adaptive
// bin ranges over a subspace. dims are sorted ascending.
type unit struct {
	dims []int
	bins []int // adaptive-bin index per dim, parallel to dims
}

func (u unit) key() string {
	b := make([]byte, 0, 4*len(u.dims))
	for i := range u.dims {
		b = append(b, byte(u.dims[i]), byte(u.dims[i]>>8), byte(u.bins[i]), byte(u.bins[i]>>8))
	}
	return string(b)
}

// adaptiveBin is one merged bin of a dimension's adaptive grid.
type adaptiveBin struct {
	lo, hi float64 // value range [lo, hi)
	count  int
	dense  bool
}

// Result is a fitted MAFIA model.
type Result struct {
	// Labels assigns each point to a cluster (cluster.Noise for none).
	Labels []int
	// Subspaces lists, per cluster, the dimensions of its subspace.
	Subspaces [][]int
	// Units counts the dense units found per lattice level (diagnostics).
	Units []int
}

// Fit runs MAFIA on the rows of data.
func Fit(data *linalg.Matrix, cfg Config) (*Result, error) {
	if data.Rows == 0 || data.Cols == 0 {
		return nil, fmt.Errorf("mafia: empty data %dx%d", data.Rows, data.Cols)
	}
	cfg = cfg.withDefaults()
	m, n := data.Rows, data.Cols

	// Adaptive grids per dimension.
	grids := make([][]adaptiveBin, n)
	for j := 0; j < n; j++ {
		grids[j] = adaptiveGrid(data.Col(j))
	}

	// Precompute each point's adaptive bin per dimension.
	binOf := make([][]int32, n)
	for j := 0; j < n; j++ {
		binOf[j] = make([]int32, m)
		col := grids[j]
		for i := 0; i < m; i++ {
			binOf[j][i] = int32(locateBin(col, data.At(i, j)))
		}
	}

	// Level 1: dense adaptive bins.
	var current []unit
	for j := 0; j < n; j++ {
		for b, ab := range grids[j] {
			if ab.dense {
				current = append(current, unit{dims: []int{j}, bins: []int{b}})
			}
		}
	}
	unitsPerLevel := []int{len(current)}
	best := append([]unit(nil), current...)
	totalCandidates := len(current)

	// Bottom-up lattice: join level-k units sharing k−1 (dim, bin) pairs.
	for level := 2; level <= maxSubspaceDims && len(current) > 1; level++ {
		candidates := make(map[string]unit)
		for a := 0; a < len(current); a++ {
			for b := a + 1; b < len(current); b++ {
				joined, ok := join(current[a], current[b])
				if !ok {
					continue
				}
				candidates[joined.key()] = joined
				totalCandidates++
				if totalCandidates > cfg.MaxCandidates {
					return nil, fmt.Errorf("%w: >%d candidates at level %d", ErrBudget, cfg.MaxCandidates, level)
				}
			}
		}
		// Support counting + density test.
		var next []unit
		for _, u := range candidates {
			count := 0
			for i := 0; i < m; i++ {
				if contains(u, binOf, i) {
					count++
				}
			}
			expected := float64(m)
			for idx, j := range u.dims {
				g := grids[j]
				b := g[u.bins[idx]]
				span := g[len(g)-1].hi - g[0].lo
				if span > 0 {
					expected *= (b.hi - b.lo) / span
				}
			}
			if float64(count) > alpha*expected && count > 0 {
				next = append(next, u)
			}
		}
		if len(next) == 0 {
			break
		}
		sort.Slice(next, func(i, j int) bool { return next[i].key() < next[j].key() })
		unitsPerLevel = append(unitsPerLevel, len(next))
		current = next
		best = next // highest level with dense units wins
	}

	labels, subspaces := clustersFromUnits(best, grids, binOf, m)
	return &Result{Labels: labels, Subspaces: subspaces, Units: unitsPerLevel}, nil
}

// adaptiveGrid builds a dimension's adaptive bins: a fine histogram whose
// adjacent bins merge while their densities stay within mergeTol of the
// peak-scaled difference, then a density test against the uniform
// expectation.
func adaptiveGrid(col []float64) []adaptiveBin {
	lo, hi := linalg.MinMax(col)
	if !(hi > lo) {
		hi = lo + 1
	}
	nb := fineBins
	w := (hi - lo) / float64(nb)
	counts := make([]int, nb)
	for _, v := range col {
		b := int((v - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nb {
			b = nb - 1
		}
		counts[b]++
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	tol := mergeTol * float64(peak)

	var grid []adaptiveBin
	start := 0
	for b := 1; b <= nb; b++ {
		if b < nb && absInt(counts[b]-counts[start]) <= int(tol) {
			continue
		}
		total := 0
		for k := start; k < b; k++ {
			total += counts[k]
		}
		grid = append(grid, adaptiveBin{lo: lo + float64(start)*w, hi: lo + float64(b)*w, count: total})
		start = b
	}
	// Density test: uniform expectation scaled by the adaptive bin width.
	m := len(col)
	for i := range grid {
		expected := float64(m) * (grid[i].hi - grid[i].lo) / (hi - lo)
		grid[i].dense = float64(grid[i].count) > alpha*expected
	}
	// Ensure full coverage for locateBin.
	grid[len(grid)-1].hi = hi + 1e-9
	return grid
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func locateBin(grid []adaptiveBin, v float64) int {
	idx := sort.Search(len(grid), func(i int) bool { return grid[i].hi > v })
	if idx >= len(grid) {
		idx = len(grid) - 1
	}
	return idx
}

// join merges two level-k units into a level-k+1 candidate when they agree
// on all but one dimension (the Apriori condition).
func join(a, b unit) (unit, bool) {
	if len(a.dims) != len(b.dims) {
		return unit{}, false
	}
	// Merge dim sets; they must overlap in exactly len-1 positions with
	// matching bins.
	dims := make([]int, 0, len(a.dims)+1)
	bins := make([]int, 0, len(a.dims)+1)
	i, j, mismatches := 0, 0, 0
	for i < len(a.dims) && j < len(b.dims) {
		switch {
		case a.dims[i] == b.dims[j]:
			if a.bins[i] != b.bins[j] {
				return unit{}, false
			}
			dims = append(dims, a.dims[i])
			bins = append(bins, a.bins[i])
			i++
			j++
		case a.dims[i] < b.dims[j]:
			dims = append(dims, a.dims[i])
			bins = append(bins, a.bins[i])
			i++
			mismatches++
		default:
			dims = append(dims, b.dims[j])
			bins = append(bins, b.bins[j])
			j++
			mismatches++
		}
		if mismatches > 2 {
			return unit{}, false
		}
	}
	for ; i < len(a.dims); i++ {
		dims = append(dims, a.dims[i])
		bins = append(bins, a.bins[i])
		mismatches++
	}
	for ; j < len(b.dims); j++ {
		dims = append(dims, b.dims[j])
		bins = append(bins, b.bins[j])
		mismatches++
	}
	if mismatches != 2 {
		return unit{}, false
	}
	return unit{dims: dims, bins: bins}, true
}

func contains(u unit, binOf [][]int32, point int) bool {
	for idx, j := range u.dims {
		if int(binOf[j][point]) != u.bins[idx] {
			return false
		}
	}
	return true
}

// clustersFromUnits unions face-adjacent dense units within the same
// subspace into clusters and labels points by membership.
func clustersFromUnits(units []unit, grids [][]adaptiveBin, binOf [][]int32, m int) ([]int, [][]int) {
	labels := make([]int, m)
	for i := range labels {
		labels[i] = cluster.Noise
	}
	if len(units) == 0 {
		return labels, nil
	}
	dsu := unionfind.New(len(units))
	for a := 0; a < len(units); a++ {
		for b := a + 1; b < len(units); b++ {
			if adjacent(units[a], units[b]) {
				dsu.Union(a, b)
			}
		}
	}
	unitCluster := dsu.Labels()
	// Label points: first matching unit wins (units are from the deepest
	// dense level, so matches are equally specific).
	for i := 0; i < m; i++ {
		for uIdx, u := range units {
			if contains(u, binOf, i) {
				labels[i] = unitCluster[uIdx]
				break
			}
		}
	}
	dense, k := cluster.Canonicalize(labels)
	subspaces := make([][]int, k)
	seen := make(map[int]bool)
	for uIdx, u := range units {
		c := unitCluster[uIdx]
		// find the canonical id of this unit's cluster via any member
		for i := 0; i < m; i++ {
			if contains(u, binOf, i) {
				cc := dense[i]
				if cc != cluster.Noise && !seen[c] {
					seen[c] = true
					subspaces[cc] = u.dims
				}
				break
			}
		}
	}
	return dense, subspaces
}

// adjacent reports whether two units of the same subspace share a face:
// equal bins everywhere except one dimension where the bins are
// consecutive.
func adjacent(a, b unit) bool {
	if len(a.dims) != len(b.dims) {
		return false
	}
	diff := 0
	for i := range a.dims {
		if a.dims[i] != b.dims[i] {
			return false
		}
		if a.bins[i] != b.bins[i] {
			if absInt(a.bins[i]-b.bins[i]) != 1 {
				return false
			}
			diff++
		}
	}
	return diff == 1
}
