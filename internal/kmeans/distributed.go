package kmeans

import (
	"fmt"

	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/xrand"
)

// FitDistributed runs parallel k-means over the ranks of comm, each rank
// holding a shard of the data. The pattern matches Liao's parallel-kmeans:
// rank 0 seeds with k-means++ on its own shard and broadcasts the
// centroids; every iteration each rank assigns its local points and
// contributes partial sums and counts to an allreduce; centroids update
// identically everywhere. Unlike KeyBin2's histogram exchange, the traffic
// is O(K·N) floats per iteration — at 1280 dimensions this is what the
// paper's Table 2 shows scaling poorly.
func FitDistributed(comm *mpi.Comm, local *linalg.Matrix, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: k=%d", cfg.K)
	}
	cfg = cfg.withDefaults()
	n := local.Cols

	// Seed at rank 0 and broadcast.
	var packed []byte
	if comm.Rank() == 0 {
		if local.Rows < cfg.K {
			return nil, fmt.Errorf("kmeans: root shard has %d points for k=%d", local.Rows, cfg.K)
		}
		centroids := seedPlusPlus(local, cfg.K, xrand.New(cfg.Seed))
		packed = mpi.EncodeFloat64s(centroids.Data)
	}
	packed, err := comm.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	cdata, err := mpi.DecodeFloat64s(packed)
	if err != nil {
		return nil, err
	}
	centroids := &linalg.Matrix{Rows: cfg.K, Cols: n, Data: cdata}

	labels := make([]int, local.Rows)
	var iters int
	var inertia float64
	for iters = 1; iters <= cfg.MaxIter; iters++ {
		localInertia := 0.0
		if local.Rows > 0 {
			localInertia = assign(local, centroids, labels, cfg.Workers)
		}
		sums, counts := partialSums(local, labels, cfg.K)

		// One allreduce carries sums, counts, and inertia together.
		payload := make([]float64, cfg.K*n+cfg.K+1)
		copy(payload, sums.Data)
		for c, ct := range counts {
			payload[cfg.K*n+c] = float64(ct)
		}
		payload[cfg.K*n+cfg.K] = localInertia
		raw, err := comm.Allreduce(mpi.EncodeFloat64s(payload), mpi.SumFloat64s)
		if err != nil {
			return nil, err
		}
		global, err := mpi.DecodeFloat64s(raw)
		if err != nil {
			return nil, err
		}
		gSums := &linalg.Matrix{Rows: cfg.K, Cols: n, Data: global[:cfg.K*n]}
		gCounts := make([]uint64, cfg.K)
		for c := range gCounts {
			gCounts[c] = uint64(global[cfg.K*n+c])
		}
		inertia = global[cfg.K*n+cfg.K]

		// Empty-cluster reseeding must be identical on every rank, so it
		// is driven by the shared seed and the shared global state; the
		// replacement is the centroid itself (freeze) rather than a local
		// point, since ranks cannot see each other's points.
		moved := updateCentroidsDistributed(centroids, gSums, gCounts)
		if moved < tol {
			break
		}
	}
	if iters > cfg.MaxIter {
		iters = cfg.MaxIter
	}
	return &Result{Centroids: centroids, Labels: labels, Iters: iters, Inertia: inertia}, nil
}

// updateCentroidsDistributed applies the global sums/counts; empty clusters
// keep their previous position (deterministic across ranks).
func updateCentroidsDistributed(centroids, sums *linalg.Matrix, counts []uint64) float64 {
	var moved float64
	for c := 0; c < centroids.Rows; c++ {
		if counts[c] == 0 {
			continue
		}
		row := centroids.Row(c)
		srow := sums.Row(c)
		inv := 1 / float64(counts[c])
		var d2 float64
		for j := range row {
			nv := srow[j] * inv
			d := nv - row[j]
			d2 += d * d
			row[j] = nv
		}
		moved += d2
	}
	return moved
}
