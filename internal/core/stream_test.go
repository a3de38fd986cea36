package core

import (
	"fmt"
	"slices"
	"testing"

	"keybin2/internal/cluster"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/quality"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func TestStreamWarmupThenLabels(t *testing.T) {
	spec := synth.AutoMixture(3, 10, 6, 1, xrand.New(40))
	src := spec.Stream(6000, xrand.New(41))
	st, err := NewStream(StreamConfig{Config: Config{Seed: 42}, Dims: 10, Warmup: 500, Period: 500})
	if err != nil {
		t.Fatal(err)
	}
	var pred, truth []int
	for {
		x, label, ok := src.Next()
		if !ok {
			break
		}
		got, err := st.Ingest(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.Seen() <= 500 {
			if got != cluster.Noise {
				t.Fatalf("warmup point %d labeled %d", st.Seen(), got)
			}
			continue
		}
		pred = append(pred, got)
		truth = append(truth, label)
	}
	if st.Seen() != 6000 {
		t.Fatalf("seen %d", st.Seen())
	}
	if st.Model() == nil {
		t.Fatal("no model after stream")
	}
	// Evaluate only post-warmup points; drop the unlabeled noise share.
	labeled := 0
	for _, l := range pred {
		if l != cluster.Noise {
			labeled++
		}
	}
	if float64(labeled)/float64(len(pred)) < 0.8 {
		t.Fatalf("only %d/%d streamed points labeled", labeled, len(pred))
	}
	_, _, f1 := eval.PrecisionRecallF1(pred, truth)
	t.Logf("stream: k=%d f1=%.3f", st.Model().K(), f1)
	if f1 < 0.5 {
		t.Fatalf("stream f1 %.3f", f1)
	}
}

func TestStreamWithRawRangesNoWarmup(t *testing.T) {
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(43))
	ranges := make([][2]float64, 6)
	for j := range ranges {
		ranges[j] = [2]float64{-12, 12} // generous bound on the mixture
	}
	st, err := NewStream(StreamConfig{Config: Config{Seed: 44}, Dims: 6, RawRanges: ranges, Period: 400})
	if err != nil {
		t.Fatal(err)
	}
	src := spec.Stream(2000, xrand.New(45))
	labeledAfterFirstRefit := 0
	total := 0
	for {
		x, _, ok := src.Next()
		if !ok {
			break
		}
		got, err := st.Ingest(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.Seen() > 400 {
			total++
			if got != cluster.Noise {
				labeledAfterFirstRefit++
			}
		}
	}
	if st.Model() == nil {
		t.Fatal("no model")
	}
	if float64(labeledAfterFirstRefit)/float64(total) < 0.7 {
		t.Fatalf("labeled %d/%d after first refit", labeledAfterFirstRefit, total)
	}
	// A batch inside one period (2000 to 2050 of 2400): its arrival labels,
	// keyed from the stored bins of the model's trial (trial 3 at this seed),
	// are the published model's labels of its rows.
	batch, _ := spec.Sample(50, xrand.New(46))
	arrivals := make([]int, batch.Rows)
	if _, err := st.IngestBatchLabels(batch, arrivals); err != nil {
		t.Fatal(err)
	}
	if want, err := st.Snapshot().AssignBatch(batch, 1); err != nil || !slices.Equal(arrivals, want) {
		t.Fatalf("trial %d: arrival labels %v, the model's %v (%v)", st.Snapshot().Trial, arrivals, want, err)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(StreamConfig{}); err == nil {
		t.Fatal("Dims required")
	}
	if _, err := NewStream(StreamConfig{Dims: 4, RawRanges: make([][2]float64, 2)}); err == nil {
		t.Fatal("range count mismatch must fail")
	}
	st, err := NewStream(StreamConfig{Config: Config{Seed: 1}, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest([]float64{1}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	// Refit before warmup is a no-op, not an error.
	if err := st.Refit(); err != nil {
		t.Fatal(err)
	}
	if err := mpi.Run(1, func(c *mpi.Comm) error {
		if err := st.SyncDistributed(c); err == nil {
			t.Error("sync before warmup must fail")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDistributedSync(t *testing.T) {
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(46))
	const ranks = 3
	type out struct {
		k     int
		trial int
	}
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (out, error) {
		st, err := NewStream(StreamConfig{Config: Config{Seed: 47}, Dims: 8, Warmup: 300, Period: 100000})
		if err != nil {
			return out{}, err
		}
		src := spec.Stream(1500, xrand.New(int64(48+c.Rank())))
		for {
			x, _, ok := src.Next()
			if !ok {
				break
			}
			if _, err := st.Ingest(x); err != nil {
				return out{}, err
			}
		}
		// Ranges were derived from each rank's own warmup, so sets differ
		// across ranks; SyncDistributed requires congruence. Rebuild the
		// congruent case: use fixed raw ranges instead.
		st2, err := NewStream(StreamConfig{Config: Config{Seed: 47}, Dims: 8,
			RawRanges: fixedRanges(8, -12, 12), Period: 100000})
		if err != nil {
			return out{}, err
		}
		src2 := spec.Stream(1500, xrand.New(int64(148+c.Rank())))
		for {
			x, _, ok := src2.Next()
			if !ok {
				break
			}
			if _, err := st2.Ingest(x); err != nil {
				return out{}, err
			}
		}
		if err := st2.SyncDistributed(c); err != nil {
			return out{}, err
		}
		if st2.Seen() != 1500*ranks {
			return out{}, fmt.Errorf("synced seen %d want %d", st2.Seen(), 1500*ranks)
		}
		return out{k: st2.Model().K(), trial: st2.Model().Trial}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < ranks; r++ {
		if results[r] != results[0] {
			t.Fatalf("rank %d model differs: %+v vs %+v", r, results[r], results[0])
		}
	}
	if results[0].k < 2 {
		t.Fatalf("synced model k=%d", results[0].k)
	}
}

// TestHysteresisYieldsToEvidence feeds the serving benchmark's stream
// (16 dims, 4 components, Trials 3, Period 5000, ranges ±12) a million
// points from its 512-batch pool in an order whose first refits pick
// trial 0, a 3-cluster view of the 4 components. A fixed 1.2× margin
// kept that trial for good; the mass-scaled margin lets the evidence
// win, and the final model is selectModel's own pick.
func TestHysteresisYieldsToEvidence(t *testing.T) {
	spec := synth.AutoMixture(4, 16, 6, 1, xrand.New(1))
	rng := xrand.New(40107).Split("pool")
	pool := make([]*linalg.Matrix, 512)
	for i := range pool {
		pool[i], _ = spec.Sample(1024, rng)
	}
	st, err := NewStream(StreamConfig{Config: Config{Seed: 4, Trials: 3}, Dims: 16,
		RawRanges: fixedRanges(16, -12, 12), Period: 5000})
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for b := range 1024 {
		if _, err := st.IngestBatch(pool[b%len(pool)]); err != nil {
			t.Fatal(err)
		}
		if m := st.Model(); first < 0 && m != nil {
			first = m.Trial
		}
	}
	if first != 0 {
		t.Fatalf("the first refit picked trial %d: this order no longer starts on trial 0", first)
	}
	m := st.Model()
	if pick := quality.SelectBest(m.TrialAssessments); m.Trial != pick {
		t.Fatalf("after %d points the stream holds trial %d (CH %.4g); selectModel picks trial %d (CH %.4g)",
			st.sets[0].Total(), m.Trial, m.TrialAssessments[m.Trial].CH, pick, m.TrialAssessments[pick].CH)
	}
}

func fixedRanges(dims int, lo, hi float64) [][2]float64 {
	out := make([][2]float64, dims)
	for j := range out {
		out[j] = [2]float64{lo, hi}
	}
	return out
}

func TestStreamRepeatedSyncsConserveMass(t *testing.T) {
	// Three syncs over a growing stream: the global total after each sync
	// must equal the points ingested so far across all ranks — no double
	// counting of previously synced mass.
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(100))
	const ranks = 3
	const perPhase = 400
	totals, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([]int, error) {
		st, err := NewStream(StreamConfig{Config: Config{Seed: 101, Trials: 2}, Dims: 6,
			RawRanges: fixedRanges(6, -12, 12), Period: 1 << 30})
		if err != nil {
			return nil, err
		}
		var seenAtSync []int
		src := spec.Stream(0, xrand.New(int64(102+c.Rank())))
		for round := 0; round < 3; round++ {
			for i := 0; i < perPhase; i++ {
				x, _, _ := src.Next()
				if _, err := st.Ingest(x); err != nil {
					return nil, err
				}
			}
			if err := st.SyncDistributed(c); err != nil {
				return nil, err
			}
			seenAtSync = append(seenAtSync, st.Seen())
		}
		return seenAtSync, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, seen := range totals {
		for round, got := range seen {
			want := ranks * perPhase * (round + 1)
			if got != want {
				t.Fatalf("rank %d sync %d: seen %d want %d", r, round, got, want)
			}
		}
	}
}

func TestStreamSyncRejectsDecay(t *testing.T) {
	st, err := NewStream(StreamConfig{Config: Config{Seed: 1}, Dims: 3,
		RawRanges: fixedRanges(3, -1, 1), DecayFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest([]float64{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		if err := st.SyncDistributed(c); err == nil {
			t.Error("sync with decay must be rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRefitHysteresis covers the stream's post-step on selectModel's pick:
// the first refit takes SelectBest's pick; after that a challenger takes
// over only at the margin (1.2 here) times the current trial's CH or more.
func TestRefitHysteresis(t *testing.T) {
	as := []quality.Assessment{{CH: 10}, {CH: 11.9}, {CH: 1.2 * 10}, {CH: 30}}
	cur := &Model{Trial: 0}
	for _, tc := range []struct {
		name       string
		prev       *Model
		best, want int
	}{
		{"first refit takes the pick", nil, 1, 1},
		{"challenger below 1.2x stays out", cur, 1, 0},
		{"challenger at 1.2x takes over", cur, 2, 2},
		{"challenger above 1.2x takes over", cur, 3, 3},
		{"the pick is the current trial", cur, 0, 0},
		{"a weaker current trial loses to 1.2x", &Model{Trial: 1}, 3, 3},
	} {
		if got := keepTrial(tc.prev, as, tc.best, 1.2); got != tc.want {
			t.Errorf("%s: trial %d, want %d", tc.name, got, tc.want)
		}
	}

	// Through Refit: every published model's trial is the post-step applied
	// to the assessments it carries, and the first is SelectBest's pick.
	st, err := NewStream(StreamConfig{Config: Config{Seed: 61, Trials: 4}, Dims: 8,
		RawRanges: fixedRanges(8, -12, 12), Period: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Model
	held, switched := 0, 0
	for phase := range 6 {
		spec := synth.AutoMixture(2+phase%3, 8, 6, 1, xrand.New(int64(62+phase)))
		runStreamPoints(t, st, spec, 800, int64(70+phase))
		if err := st.Refit(); err != nil {
			t.Fatal(err)
		}
		m := st.Model()
		if len(m.TrialAssessments) != 4 {
			t.Fatalf("refit %d: %d trial assessments", phase, len(m.TrialAssessments))
		}
		best := quality.SelectBest(m.TrialAssessments)
		if want := keepTrial(prev, m.TrialAssessments, best, st.trialMargin()); m.Trial != want {
			t.Fatalf("refit %d: trial %d, post-step says %d", phase, m.Trial, want)
		}
		if prev == nil && m.Trial != best {
			t.Fatalf("first refit: trial %d, SelectBest picks %d", m.Trial, best)
		}
		if prev != nil && m.Trial != best {
			held++
		} else if prev != nil && m.Trial != prev.Trial {
			switched++
		}
		prev = m
	}
	if held == 0 || switched == 0 {
		t.Fatalf("the drifting stream held its trial %d times and switched %d times; want both", held, switched)
	}
}
