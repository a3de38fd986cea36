// Package kmeans implements the two k-means baselines of the paper's
// evaluation (§4): a serial Lloyd iteration with k-means++ seeding
// (standing in for scikit-learn's kmeans++) and a distributed Lloyd over
// internal/mpi with the broadcast-centroids / partial-sums / allreduce
// pattern of Liao's parallel-kmeans. Unlike KeyBin2, both must be given the
// true K and both move O(K·N) floats per iteration — and the whole dataset
// is touched every iteration, which is what the tables show blowing up as
// dimensionality grows.
package kmeans

import (
	"fmt"
	"math"
	"sync"

	"keybin2/internal/linalg"
	"keybin2/internal/xrand"
)

// tol stops Lloyd iteration once the total centroid movement falls below
// it.
const tol = 1e-6

// Config tunes a k-means fit.
type Config struct {
	// K is the number of clusters (required).
	K int
	// MaxIter bounds Lloyd iterations (0 = 100).
	MaxIter int
	// Seed drives k-means++ seeding.
	Seed int64
	// Workers bounds assignment-phase goroutines (0 = GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	return c
}

// Result is a fitted k-means model.
type Result struct {
	Centroids *linalg.Matrix
	Labels    []int
	Iters     int
	// Inertia is the sum of squared distances to assigned centroids.
	Inertia float64
}

// Fit runs k-means++ seeding followed by Lloyd iterations.
func Fit(data *linalg.Matrix, cfg Config) (*Result, error) {
	if cfg.K <= 0 || cfg.K > data.Rows {
		return nil, fmt.Errorf("kmeans: k=%d for %d points", cfg.K, data.Rows)
	}
	cfg = cfg.withDefaults()
	centroids := seedPlusPlus(data, cfg.K, xrand.New(cfg.Seed))
	labels := make([]int, data.Rows)
	var iters int
	var inertia float64
	for iters = 1; iters <= cfg.MaxIter; iters++ {
		inertia = assign(data, centroids, labels, cfg.Workers)
		sums, counts := partialSums(data, labels, cfg.K)
		moved := updateCentroids(centroids, sums, counts, data, xrand.New(cfg.Seed+int64(iters)))
		if moved < tol {
			break
		}
	}
	if iters > cfg.MaxIter {
		iters = cfg.MaxIter
	}
	return &Result{Centroids: centroids, Labels: labels, Iters: iters, Inertia: inertia}, nil
}

// seedPlusPlus picks K initial centroids with the k-means++ D² weighting.
func seedPlusPlus(data *linalg.Matrix, k int, rng *xrand.Stream) *linalg.Matrix {
	m, n := data.Rows, data.Cols
	centroids := linalg.NewMatrix(k, n)
	first := rng.Intn(m)
	copy(centroids.Row(0), data.Row(first))
	d2 := make([]float64, m)
	for i := range d2 {
		d2[i] = linalg.SqDist(data.Row(i), centroids.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(m) // all points coincide with chosen centroids
		} else {
			u := rng.Float64() * total
			for i, d := range d2 {
				u -= d
				if u < 0 {
					idx = i
					break
				}
			}
		}
		copy(centroids.Row(c), data.Row(idx))
		for i := range d2 {
			if d := linalg.SqDist(data.Row(i), centroids.Row(c)); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// assign labels every point with its nearest centroid and returns the
// inertia. The scan is parallel over row blocks.
func assign(data, centroids *linalg.Matrix, labels []int, workers int) float64 {
	workers = linalg.Workers(workers)
	if workers > data.Rows {
		workers = 1
	}
	partial := make([]float64, workers)
	var wg sync.WaitGroup
	chunk := (data.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > data.Rows {
			hi = data.Rows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var local float64
			for i := lo; i < hi; i++ {
				row := data.Row(i)
				best, bestD := 0, math.Inf(1)
				for c := 0; c < centroids.Rows; c++ {
					if d := linalg.SqDist(row, centroids.Row(c)); d < bestD {
						best, bestD = c, d
					}
				}
				labels[i] = best
				local += bestD
			}
			partial[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	var inertia float64
	for _, p := range partial {
		inertia += p
	}
	return inertia
}

// partialSums accumulates per-cluster coordinate sums and counts — the
// quantity the distributed variant allreduces.
func partialSums(data *linalg.Matrix, labels []int, k int) (*linalg.Matrix, []uint64) {
	sums := linalg.NewMatrix(k, data.Cols)
	counts := make([]uint64, k)
	for i := 0; i < data.Rows; i++ {
		c := labels[i]
		counts[c]++
		linalg.AxpyInPlace(sums.Row(c), 1, data.Row(i))
	}
	return sums, counts
}

// updateCentroids divides sums by counts and returns the total centroid
// movement. Empty clusters are re-seeded at a random data point (the
// standard remedy).
func updateCentroids(centroids, sums *linalg.Matrix, counts []uint64, data *linalg.Matrix, rng *xrand.Stream) float64 {
	var moved float64
	for c := 0; c < centroids.Rows; c++ {
		row := centroids.Row(c)
		if counts[c] == 0 {
			if data != nil && data.Rows > 0 {
				moved += linalg.Dist(row, data.Row(rng.Intn(data.Rows)))
				copy(row, data.Row(rng.Intn(data.Rows)))
			}
			continue
		}
		inv := 1 / float64(counts[c])
		var d2 float64
		srow := sums.Row(c)
		for j := range row {
			nv := srow[j] * inv
			d := nv - row[j]
			d2 += d * d
			row[j] = nv
		}
		moved += math.Sqrt(d2)
	}
	return moved
}
