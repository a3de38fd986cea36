package core

import (
	"testing"

	"keybin2/internal/cluster"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func TestSuppressBelowKeepsAccuracy(t *testing.T) {
	// With balanced clusters sharded across ranks, suppressing bins below
	// a small k must not change the outcome materially: every real bin
	// holds far more than k points per rank.
	spec := synth.AutoMixture(4, 16, 6, 1, xrand.New(50))
	data, truth := spec.Sample(8000, xrand.New(51))
	const ranks = 4
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([]int, error) {
		lo, hi := synth.Shard(data.Rows, ranks, c.Rank())
		local := linalg.NewMatrix(hi-lo, data.Cols)
		copy(local.Data, data.Data[lo*data.Cols:hi*data.Cols])
		_, labels, err := FitDistributed(c, local, Config{Seed: 52, SuppressBelow: 3})
		return labels, err
	})
	if err != nil {
		t.Fatal(err)
	}
	var pred []int
	for _, r := range results {
		pred = append(pred, r...)
	}
	_, _, f1 := eval.PrecisionRecallF1(pred, truth)
	t.Logf("suppressed fit f1=%.3f", f1)
	if f1 < 0.6 {
		t.Fatalf("suppressed f1 %.3f", f1)
	}
}

func TestSuppressBelowDropsMicroClusters(t *testing.T) {
	// A 6-point micro-cluster spread over 3 ranks (2 points each) falls
	// below SuppressBelow=5 on every rank, and all 6 of a one-rank Fit's
	// points fall below 7: either way it must disappear (its points become
	// noise), while the main clusters survive.
	spec := &synth.MixtureSpec{Dims: 4, Components: []synth.Component{
		{Mean: []float64{-6, -6, -6, -6}, Std: []float64{0.5, 0.5, 0.5, 0.5}, Weight: 1},
		{Mean: []float64{6, 6, 6, 6}, Std: []float64{0.5, 0.5, 0.5, 0.5}, Weight: 1},
	}}
	base, truth := spec.Sample(3000, xrand.New(53))
	// append the micro-cluster at a far-away location
	micro := 6
	data := linalg.NewMatrix(base.Rows+micro, base.Cols)
	copy(data.Data, base.Data)
	for i := 0; i < micro; i++ {
		row := data.Row(base.Rows + i)
		for j := range row {
			row[j] = 20 + 0.01*float64(i)
		}
		truth = append(truth, 2)
	}
	// roundRobin fits over 3 ranks sharded so each gets 2 micro points.
	roundRobin := func(cfg Config) []int {
		const ranks = 3
		results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([]int, error) {
			var rows []int
			for i := c.Rank(); i < data.Rows; i += ranks {
				rows = append(rows, i)
			}
			local := linalg.NewMatrix(len(rows), data.Cols)
			for k, i := range rows {
				copy(local.Row(k), data.Row(i))
			}
			_, labels, err := FitDistributed(c, local, cfg)
			return labels, err
		})
		if err != nil {
			t.Fatal(err)
		}
		// stitch back into original order
		out := make([]int, data.Rows)
		for r := 0; r < ranks; r++ {
			k := 0
			for i := r; i < data.Rows; i += ranks {
				out[i] = results[r][k]
				k++
			}
		}
		return out
	}
	// oneRank is Fit: the threshold applies to the whole data's 6 points.
	oneRank := func(cfg Config) []int {
		_, labels, err := Fit(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	for _, tc := range []struct {
		name     string
		fit      func(Config) []int
		suppress int
	}{
		{"3 ranks", roundRobin, 5},
		{"Fit", oneRank, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(suppress int) []int {
				return tc.fit(Config{Seed: 54, SuppressBelow: suppress, MinClusterSize: 2, Trials: 1})
			}
			checkMicroSuppressed(t, base.Rows, run(0), run(tc.suppress))
		})
	}
}

// checkMicroSuppressed asserts that the micro-cluster (rows from base on) is
// its own cluster without suppression and not with it, and that the main
// clusters (rows below base) survive suppression.
func checkMicroSuppressed(t *testing.T, base int, plain, suppressed []int) {
	t.Helper()
	// exclusiveMicroLabels: labels held only by micro points — the
	// signature of the micro-cluster being visible as its own cluster.
	exclusive := func(labels []int) map[int]bool {
		microLabels := map[int]bool{}
		for i := base; i < len(labels); i++ {
			if labels[i] != cluster.Noise {
				microLabels[labels[i]] = true
			}
		}
		for i := 0; i < base; i++ {
			delete(microLabels, labels[i])
		}
		return microLabels
	}
	if len(exclusive(plain)) == 0 {
		t.Fatal("plain fit should expose the micro-cluster as its own cluster")
	}
	// With suppression, no communicated value reveals the 2-point-per-rank
	// group: its points are either absorbed into a neighboring segment or
	// shed as noise, but never form their own cluster.
	if got := exclusive(suppressed); len(got) != 0 {
		t.Fatalf("suppression leaked the micro-cluster as %v", got)
	}
	// Main clusters survive suppression.
	mainLabeled := 0
	for i := 0; i < base; i++ {
		if suppressed[i] != cluster.Noise {
			mainLabeled++
		}
	}
	if float64(mainLabeled)/float64(base) < 0.95 {
		t.Fatalf("main clusters harmed: %d/%d labeled", mainLabeled, base)
	}
}

func TestStreamDecayForgetsOldRegime(t *testing.T) {
	// Regime A then regime B. Without decay the final model carries both;
	// with decay the A-mass fades and the final cluster count shrinks.
	dims := 8
	regimeA := synth.AutoMixture(3, dims, 6, 1, xrand.New(60))
	regimeB := synth.AutoMixture(3, dims, 6, 1, xrand.New(61))

	run := func(decay float64) int {
		st, err := NewStream(StreamConfig{
			Config: Config{Seed: 62, Trials: 2}, Dims: dims,
			RawRanges: fixedRanges(dims, -12, 12),
			Period:    500, DecayFactor: decay,
		})
		if err != nil {
			t.Fatal(err)
		}
		feed := func(spec *synth.MixtureSpec, n int, seed int64) {
			src := spec.Stream(n, xrand.New(seed))
			for {
				x, _, ok := src.Next()
				if !ok {
					return
				}
				if _, err := st.Ingest(x); err != nil {
					t.Fatal(err)
				}
			}
		}
		feed(regimeA, 3000, 63)
		feed(regimeB, 6000, 64)
		if err := st.Refit(); err != nil {
			t.Fatal(err)
		}
		return st.Model().K()
	}

	noDecay := run(0)
	withDecay := run(0.6)
	t.Logf("clusters: no decay %d, decay 0.6 %d", noDecay, withDecay)
	if withDecay >= noDecay {
		t.Fatalf("decay should shrink the cluster count: %d vs %d", withDecay, noDecay)
	}
	if withDecay < 2 {
		t.Fatalf("decayed model lost the live regime: k=%d", withDecay)
	}
}

func TestDistributedErrorDoesNotDeadlock(t *testing.T) {
	// One rank runs a different Trials count: its collective payloads
	// mismatch, some rank errors, and the world must tear down instead of
	// deadlocking.
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(70))
	data, _ := spec.Sample(900, xrand.New(71))
	err := mpi.Run(3, func(c *mpi.Comm) error {
		lo, hi := synth.Shard(data.Rows, 3, c.Rank())
		local := linalg.NewMatrix(hi-lo, data.Cols)
		copy(local.Data, data.Data[lo*data.Cols:hi*data.Cols])
		cfg := Config{Seed: 72, Trials: 2}
		if c.Rank() == 1 {
			cfg.Trials = 4 // protocol violation
		}
		_, _, err := FitDistributed(c, local, cfg)
		return err
	})
	if err == nil {
		t.Fatal("mismatched configs must surface an error")
	}
}
