package kmeans

import (
	"fmt"
	"math"

	"keybin2/internal/linalg"
	"keybin2/internal/xrand"
)

// XConfig tunes an X-means fit (Pelleg & Moore 2000), the related-work
// method §2 cites for removing k-means' fixed-K requirement via the
// Bayesian Information Criterion. It is the natural non-parametric k-means
// competitor to KeyBin2.
type XConfig struct {
	// MaxIter bounds each Lloyd run (0 selects 50).
	MaxIter int
	// Seed drives seeding and split attempts.
	Seed int64
	// Workers bounds assignment goroutines (0 = GOMAXPROCS).
	Workers int
}

// X-means starts at kMin clusters and stops splitting at kMax.
const (
	kMin = 2
	kMax = 16
)

func (c XConfig) withDefaults() XConfig {
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	return c
}

// FitX runs X-means: start at kMin, then repeatedly try to split each
// cluster in two and keep splits whose local BIC improves, refitting
// globally after each round, until no split survives or kMax is reached.
func FitX(data *linalg.Matrix, cfg XConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if data.Rows < kMin {
		return nil, fmt.Errorf("kmeans: %d points for kmin %d", data.Rows, kMin)
	}
	k := kMin
	res, err := Fit(data, Config{K: k, MaxIter: cfg.MaxIter, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed + 1)

	for round := 0; k < kMax; round++ {
		// Gather members per cluster.
		members := make([][]int, k)
		for i, l := range res.Labels {
			members[l] = append(members[l], i)
		}
		splits := 0
		var newCentroids [][]float64
		for c := 0; c < k; c++ {
			rows := members[c]
			if len(rows) < 4 || k+splits >= kMax {
				newCentroids = append(newCentroids, append([]float64(nil), res.Centroids.Row(c)...))
				continue
			}
			sub := linalg.NewMatrix(len(rows), data.Cols)
			for j, i := range rows {
				copy(sub.Row(j), data.Row(i))
			}
			one := bicSpherical(sub, onesLabels(sub.Rows), centroidsOf(sub, onesLabels(sub.Rows), 1))
			two, err := Fit(sub, Config{K: 2, MaxIter: cfg.MaxIter, Seed: rng.Seed() + int64(100*c+round), Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			split := bicSpherical(sub, two.Labels, two.Centroids)
			if split > one {
				newCentroids = append(newCentroids,
					append([]float64(nil), two.Centroids.Row(0)...),
					append([]float64(nil), two.Centroids.Row(1)...))
				splits++
			} else {
				newCentroids = append(newCentroids, append([]float64(nil), res.Centroids.Row(c)...))
			}
		}
		if splits == 0 {
			break
		}
		// Refit globally from the accepted centroid set.
		k = len(newCentroids)
		centroids := linalg.NewMatrix(k, data.Cols)
		for c, row := range newCentroids {
			copy(centroids.Row(c), row)
		}
		res = refineFrom(data, centroids, cfg)
	}
	return res, nil
}

// refineFrom runs Lloyd iterations from an explicit centroid set.
func refineFrom(data, centroids *linalg.Matrix, cfg XConfig) *Result {
	labels := make([]int, data.Rows)
	var inertia float64
	iters := 0
	for iters = 1; iters <= cfg.MaxIter; iters++ {
		inertia = assign(data, centroids, labels, cfg.Workers)
		sums, counts := partialSums(data, labels, centroids.Rows)
		moved := updateCentroids(centroids, sums, counts, data, xrand.New(cfg.Seed+int64(iters)))
		if moved < tol {
			break
		}
	}
	if iters > cfg.MaxIter {
		iters = cfg.MaxIter
	}
	return &Result{Centroids: centroids, Labels: labels, Iters: iters, Inertia: inertia}
}

func onesLabels(n int) []int { return make([]int, n) }

func centroidsOf(data *linalg.Matrix, labels []int, k int) *linalg.Matrix {
	sums, counts := partialSums(data, labels, k)
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		row := sums.Row(c)
		for j := range row {
			row[j] *= inv
		}
	}
	return sums
}

// bicSpherical is the Pelleg–Moore BIC of a spherical-Gaussian k-means
// model: log likelihood minus (p/2)·ln n with p = k·(d+1) free parameters.
func bicSpherical(data *linalg.Matrix, labels []int, centroids *linalg.Matrix) float64 {
	n, d := data.Rows, data.Cols
	k := centroids.Rows
	if n <= k {
		return math.Inf(-1)
	}
	var ss float64
	sizes := make([]int, k)
	for i, l := range labels {
		sizes[l]++
		ss += linalg.SqDist(data.Row(i), centroids.Row(l))
	}
	sigma2 := ss / (float64(d) * float64(n-k))
	if sigma2 <= 0 {
		sigma2 = 1e-12
	}
	var ll float64
	for _, nj := range sizes {
		if nj > 0 {
			ll += float64(nj) * math.Log(float64(nj))
		}
	}
	ll -= float64(n) * math.Log(float64(n))
	ll -= float64(n) * float64(d) / 2 * math.Log(2*math.Pi*sigma2)
	ll -= float64(d) * float64(n-k) / 2
	p := float64(k) * (float64(d) + 1)
	return ll - p/2*math.Log(float64(n))
}
