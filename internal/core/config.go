// Package core implements the KeyBin2 clustering engine (§3): random
// projection into a low-dimensional subspace, per-point hierarchical key
// assignment, histogram construction and consolidation, discrete-
// optimization partitioning, global cluster assignment from primary
// clusters, and bootstrap model selection with the histogram-space
// Calinski–Harabasz index. Serial, distributed (over internal/mpi), and
// streaming drivers share the same model type.
package core

import (
	"fmt"

	"keybin2/internal/partition"
	"keybin2/internal/projection"
)

// Config tunes a KeyBin2 fit. The zero value (plus a seed) selects the
// paper's defaults.
type Config struct {
	// Trials is the number of bootstrap projection trials t (default 5).
	Trials int
	// ProjectionKind selects the random matrix construction (default
	// Gaussian).
	ProjectionKind projection.Kind
	// NoProjection skips the projection entirely and bins the raw
	// dimensions — the KeyBin1 ablation. High-dimensional inputs become
	// expensive; intended for ablation and low-dimensional data.
	NoProjection bool
	// TargetDims overrides N_rp (0 = the paper's 1.5·log₂N rule).
	TargetDims int
	// Depth overrides the binning-tree depth (0 = keys.DefaultDepth(M),
	// giving B ≈ log₂²M finest bins).
	Depth int
	// Partition configures the histogram partitioner.
	Partition partition.Config
	// CollapseRelax scales the Lilliefors critical value used to collapse
	// uninformative dimensions; 0 selects 1.0, negative disables
	// collapsing.
	CollapseRelax float64
	// MinClusterSize drops occupied key tuples with fewer points to noise
	// (0 = max(2, M/1000)). The survivors are the reported clusters.
	MinClusterSize int
	// MaxClusters caps the clusters kept for assessment/assignment,
	// retaining the most massive (0 = 256).
	MaxClusters int
	// Workers bounds the goroutines used for projection and binning
	// (0 = GOMAXPROCS).
	Workers int
	// Seed drives every random choice; fits with equal seeds and inputs
	// are identical. Distributed ranks must share the seed — the
	// projection matrices are derived from it rather than broadcast.
	Seed int64
	// Ring switches histogram consolidation from the binomial-tree
	// reduction to the ring topology of §3 step 3 (distributed fits only).
	Ring bool
	// SuppressBelow, when ≥ 2, zeroes local histogram bins and drops local
	// key-tuple entries with fewer observations before any communication —
	// a k-anonymity strengthening of KeyBin's privacy property: every
	// value a rank ships aggregates at least this many of its points. The
	// cost is that clusters whose per-rank share falls below the threshold
	// may be lost (the privacy/utility trade-off). A one-rank fit (Fit)
	// applies the same threshold to the bins and tuples of its whole data.
	SuppressBelow int
}

func (c Config) withDefaults(m, n int) Config {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.NoProjection {
		c.TargetDims = n
		c.Trials = 1
	} else if c.TargetDims <= 0 {
		c.TargetDims = projection.TargetDims(n)
	}
	if c.CollapseRelax == 0 {
		c.CollapseRelax = 1
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = m / 1000
		if c.MinClusterSize < 2 {
			c.MinClusterSize = 2
		}
	}
	if c.MaxClusters <= 0 {
		c.MaxClusters = 256
	}
	return c
}

// Validate rejects configurations that cannot run.
func (c Config) Validate() error {
	if c.Trials < 0 {
		return fmt.Errorf("core: negative trials %d", c.Trials)
	}
	if c.TargetDims < 0 {
		return fmt.Errorf("core: negative target dims %d", c.TargetDims)
	}
	if c.Depth < 0 {
		return fmt.Errorf("core: negative depth %d", c.Depth)
	}
	return nil
}
