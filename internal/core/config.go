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
	// Depth overrides the binning-tree depth (0 = DefaultDepth(M):
	// B ≈ log₂²M bins). Validate refuses more than 16, whose bins a uint16
	// cannot hold.
	Depth int
	// MinClusterSize drops occupied key tuples with fewer points to noise
	// (0 = max(2, M/1000)). The survivors are the reported clusters.
	MinClusterSize int
	// Workers bounds the goroutines of a fit's projection, binning and
	// labelling passes and of a stream's warm-up projection
	// (0 = GOMAXPROCS). A stream's batch apply is serial whatever it says:
	// it runs on the caller's goroutine.
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
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = max(2, m/1000)
	}
	return c
}

// maxDepth is the deepest binning tree a fit or a stream takes: both bin
// through linalg.BinRows, whose bins are uint16.
const maxDepth = 16

// Validate rejects configurations that cannot run.
func (c Config) Validate() error {
	if _, reason := c.invalid(); reason != "" {
		return fmt.Errorf("core: %s", reason)
	}
	return nil
}

// invalid names the first field of c that cannot run and says why; ""
// when every field can. Config.Validate and StreamConfig.Validate wrap it
// in their own error types.
func (c Config) invalid() (field, reason string) {
	switch {
	case c.Trials < 0:
		return "Trials", fmt.Sprintf("negative trials %d", c.Trials)
	case c.TargetDims < 0:
		return "TargetDims", fmt.Sprintf("negative target dims %d", c.TargetDims)
	case c.Depth < 0:
		return "Depth", fmt.Sprintf("negative depth %d", c.Depth)
	case c.Depth > maxDepth:
		return "Depth", fmt.Sprintf("depth %d is deeper than %d, the most uint16 bin indices hold", c.Depth, maxDepth)
	}
	return "", ""
}

// DefaultDepth returns the binning-tree depth for a dataset of m points:
// the finest level has B = 2^depth ≈ log₂²(m) bins, reconciling the
// paper's B = log M complexity claim (§3.4) with its w = √(log₂²M)
// smoothing window (§3.2). The result is clamped to [3, 10] so tiny and
// huge datasets stay tractable.
func DefaultDepth(m int) int {
	if m < 2 {
		return 3
	}
	l2 := 0
	for v := m; v > 1; v >>= 1 {
		l2++
	}
	target := l2 * l2 // ≈ log2²(m) bins
	depth := 0
	for v := 1; v < target; v <<= 1 {
		depth++
	}
	if depth < 3 {
		depth = 3
	}
	if depth > 10 {
		depth = 10
	}
	return depth
}
