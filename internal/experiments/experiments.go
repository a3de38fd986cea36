// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–§5) plus the ablations DESIGN.md calls out. Each
// experiment is a pure function from a Scale (sizing knobs) to typed rows;
// cmd/benchtab renders them in the paper's format and bench_test.go wraps
// them in testing.B benchmarks.
//
// Paper-scale runs (1.28M points × 1280 dims × 20 repeats on 16 ranks) take
// hours; the default Scale keeps the exact experimental design — the same
// ×4 dimension ladder, the same process-doubling ladder, the same methods —
// at sizes that complete in minutes. Shape conclusions (who wins, how
// scaling curves bend) are preserved; absolute numbers are hardware-bound
// either way.
package experiments

import (
	"time"

	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// Scale sizes the experiment grid.
type Scale struct {
	// PointsPerProc is the per-rank shard size (paper: 80,000).
	PointsPerProc int
	// Repeats is the number of independent runs per design point
	// (paper: 20).
	Repeats int
	// Procs is Table 1's fixed rank count (paper: 16).
	Procs int
	// DimLadder is Table 1's dimension sweep (paper: 20, 80, 320, 1280).
	DimLadder []int
	// ProcLadder is Table 2's doubling sweep (paper: 1..16).
	ProcLadder []int
	// Table2Dims is Table 2's fixed dimensionality (paper: 1280).
	Table2Dims int
	// TrajectoryFrameDiv divides the Table 3 suite's frame counts for the
	// Figure 3/4 runs (1 = full length).
	TrajectoryFrameDiv int
	// RunDistributedDBSCAN fills the Table 2 cells the paper left as "—":
	// our distributed PDSDBSCAN (spatial slabs + halo exchange + boundary
	// merge) runs at every process count. Off by default — it is costly at
	// high dimensionality, which is the paper's point.
	RunDistributedDBSCAN bool
	// Seed drives all data generation and algorithm seeding.
	Seed int64
	// Workers bounds worker goroutines inside each algorithm.
	Workers int
}

// Default returns a laptop-scale grid with the paper's design intact.
func Default() Scale {
	return Scale{
		PointsPerProc:      4000,
		Repeats:            3,
		Procs:              4,
		DimLadder:          []int{20, 80, 320, 1280},
		ProcLadder:         []int{1, 2, 4, 8, 16},
		Table2Dims:         320,
		TrajectoryFrameDiv: 10,
		Seed:               1,
	}
}

// Paper returns the full paper-scale grid. Expect hours of CPU.
func Paper() Scale {
	return Scale{
		PointsPerProc:      80000,
		Repeats:            20,
		Procs:              16,
		DimLadder:          []int{20, 80, 320, 1280},
		ProcLadder:         []int{1, 2, 4, 8, 16},
		Table2Dims:         1280,
		TrajectoryFrameDiv: 1,
		Seed:               1,
	}
}

// Row is one method's aggregated line within a table group.
type Row struct {
	// Group names the design point ("20 dimensions", "4 processes …").
	Group string
	// Method names the algorithm.
	Method string
	// Agg holds clusters/recall/precision/F1/time with 95% CIs.
	Agg eval.Aggregate
	// Skipped marks rows reported as "—" with the reason in Note.
	Skipped bool
	Note    string
	// BytesPerRank and MsgsPerRank are the mean payload bytes and messages
	// one rank sent during one fit (mpi.Stats). Set on Table 2's KeyBin2
	// rows only; zero on one rank, which talks to nobody.
	BytesPerRank, MsgsPerRank float64
}

// noiseFrac is the uniform background-noise share mixed into the Tables
// 1–2 workload. The paper's §4 notes KeyBin2's extra clusters were "small
// outliers from noise in the data" — its synthetic mixtures carry noise,
// which is also what separates the methods: k-means must absorb noise
// points into its K clusters (diluting its pair precision) while KeyBin2
// sheds them into dust tuples.
const noiseFrac = 0.05

// mixtureFor builds the Tables 1–2 workload: 4 Gaussian components with
// diagonal covariance, component centers spread so projections remain
// separable at any dimensionality.
func mixtureFor(dims int, seed int64) *synth.MixtureSpec {
	return synth.AutoMixture(4, dims, 6, 1, xrand.New(seed))
}

// sampleShards draws the full dataset once (mixture plus background
// noise), shuffles it so every rank's shard is an unbiased sample, and
// cuts per-rank shards. The returned truth is in shard order.
func sampleShards(spec *synth.MixtureSpec, m, ranks int, seed int64) ([]*linalg.Matrix, []int) {
	signal := int(float64(m) * (1 - noiseFrac))
	data, truth := spec.Sample(signal, xrand.New(seed))
	data, truth = synth.WithNoise(data, truth, m-signal, 2, xrand.New(seed+7))

	rng := xrand.New(seed + 13)
	rng.Shuffle(data.Rows, func(i, j int) {
		ri, rj := data.Row(i), data.Row(j)
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
		truth[i], truth[j] = truth[j], truth[i]
	})

	shards := make([]*linalg.Matrix, ranks)
	for r := 0; r < ranks; r++ {
		lo, hi := synth.Shard(m, ranks, r)
		sh := linalg.NewMatrix(hi-lo, data.Cols)
		copy(sh.Data, data.Data[lo*data.Cols:hi*data.Cols])
		shards[r] = sh
	}
	return shards, truth
}

// timed measures fn.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
