package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/eval"
	"keybin2/internal/mpi"
)

// fitSeeds are the Config.Seed of the fits of one round: two serial,
// two distributed. They are the same in every round, so every round is
// the same work and its models can be compared with the first round's.
var fitSeeds = struct{ serial, dist [2]int64 }{
	serial: [2]int64{11, 12},
	dist:   [2]int64{13, 14},
}

// fitBatch is the paper's own mode: cluster a matrix that is already in
// memory, serially and over two in-process mpi ranks. The serving tier
// does nothing here.
type fitBatch struct {
	plan plan
	sz   sizes
	rep  *report
	rec  *recorder

	in                fitInputs
	baseline          [][]int // round 0's labels per fit, for the determinism check
	models            []*core.Model
	fitMs, distMs     []float64
	mpiBytes, mpiMsgs int64
}

// distFit runs one FitDistributed over two ranks, each holding half the
// rows, and returns rank 0's model, all labels in row order, and the
// traffic the ranks sent.
func (w *fitBatch) distFit(seed int64) (*core.Model, []int, int64, int64, error) {
	comms, closeAll := mpi.NewWorld(2)
	defer closeAll()
	models := make([]*core.Model, 2)
	labels := make([][]int, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c *mpi.Comm) {
			defer wg.Done()
			models[r], labels[r], errs[r] = core.FitDistributed(c, w.in.halves[r], core.Config{Seed: seed})
			if errs[r] != nil {
				c.Abort() // release the peer if it is blocked on this rank
			}
		}(r, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, 0, err
		}
	}
	var bytes, msgs int64
	for _, c := range comms {
		bytes += c.Stats().Bytes()
		msgs += c.Stats().Messages()
	}
	return models[0], append(labels[0], labels[1]...), bytes, msgs, nil
}

// round is two serial and two distributed fits of the whole matrix.
// Its time is time to labels: Fit returns them.
func (w *fitBatch) round(parent int, timed bool) (seconds float64, err error) {
	id := w.rec.begin(parent, "round")
	defer w.rec.end(id)
	var all [][]int
	var models []*core.Model
	start := time.Now()
	for _, seed := range fitSeeds.serial {
		t0 := time.Now()
		m, labels, err := core.Fit(w.in.data, core.Config{Seed: seed})
		t1 := time.Now()
		w.rec.add(id, "core.fit", t0, t1)
		w.rep.attempted.Add(1)
		if err != nil {
			w.rep.failed.Add(1)
			return 0, err
		}
		if timed {
			w.fitMs = append(w.fitMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
		all, models = append(all, labels), append(models, m)
	}
	for _, seed := range fitSeeds.dist {
		t0 := time.Now()
		m, labels, bytes, msgs, err := w.distFit(seed)
		t1 := time.Now()
		w.rec.add(id, "core.fit_distributed", t0, t1)
		w.rep.attempted.Add(1)
		if err != nil {
			w.rep.failed.Add(1)
			return 0, err
		}
		if timed {
			w.distMs = append(w.distMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
			w.mpiBytes, w.mpiMsgs = bytes, msgs
		}
		all, models = append(all, labels), append(models, m)
	}
	seconds = time.Since(start).Seconds()

	// Outside the timing: equal seeds and inputs must give equal labels.
	if w.baseline == nil {
		w.baseline, w.models = all, models
		return seconds, nil
	}
	for f := range all {
		if !equalInts(all[f], w.baseline[f]) {
			w.rep.failCheck("fit_deterministic", "fit %d of a round labelled differently than the same fit of the first round", f)
		}
	}
	return seconds, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tearDown lets go of everything a set-up made, or the next set-up
// would build its inputs beside them and peak_rss_mb would measure the
// bench, not the library.
func (w *fitBatch) tearDown() error {
	w.in, w.baseline, w.models = fitInputs{}, nil, nil
	return nil
}

func (w *fitBatch) setUp() error {
	w.in = genFitInputs(w.sz, w.plan.seed)
	w.baseline, w.models = nil, nil
	for i := 0; i < w.sz.warmRounds; i++ {
		if _, err := w.round(0, false); err != nil {
			return fmt.Errorf("warm-up round %d: %w", i, err)
		}
	}
	return nil
}

func (w *fitBatch) run() error {
	root := w.rec.begin(0, "workload.fit_batch")
	defer w.rec.end(root)

	setupS, err := repeatSetUp(w.plan, w.sz, w.setUp, w.tearDown)
	if err != nil {
		return err
	}
	w.rep.set("setup_s", setupS)
	w.rec.add(root, "phase.setup", processStart, time.Now())
	satBudget, _ := w.plan.budgets()

	runtime.GC()
	roundPts := float64(4 * w.in.data.Rows)
	plain, traced, err := timedRounds(w.rec, root, w.plan.trace, w.sz.minRounds, satBudget, func(parent int) (float64, error) {
		s, err := w.round(parent, true)
		return roundPts / s, err
	})
	if err != nil {
		return err
	}
	w.rep.set("pts_per_s", steadyRate(plain))
	w.rep.notes["pts_per_s"] = rateNote(plain, roundPts)
	w.rep.set("core.fit_ms", median(w.fitMs))
	w.rep.set("core.fit_dist_ms", median(w.distMs))
	w.rep.set("mpi.bytes_per_fit", float64(w.mpiBytes))
	w.rep.set("mpi.msgs_per_fit", float64(w.mpiMsgs))
	if w.plan.trace {
		reportTraceCost(w.rep, plain, traced)
	}

	// f1: the four models of a round label the held-out probe set.
	runtime.GC()
	var f1s []float64
	for _, m := range w.models {
		labels, err := m.AssignBatch(w.in.probe, 0)
		if err != nil {
			return err
		}
		_, _, f1 := eval.PrecisionRecallF1(labels, w.in.truth)
		f1s = append(f1s, f1)
	}
	w.rep.set("f1", median(f1s))
	w.rep.notes["f1"] = fmt.Sprintf("median of the round's %d models", len(f1s))
	if median(f1s) < 0.80 {
		w.rep.failCheck("f1_floor", "f1 %.4f is below 0.80", median(f1s))
	}

	if w.plan.trace {
		runtime.GC()
		id := w.rec.begin(root, "phase.ladder")
		defer w.rec.end(id)
		kt, err := core.MeasureKernels(w.in.data, core.Config{Seed: fitSeeds.serial[0]}, 1)
		if err != nil {
			return err
		}
		w.rep.set("core.key_assign_ns_per_pt", kt.KeyAssignNsPerPoint)
		w.rep.set("core.tuple_count_ns_per_pt", kt.TupleCountNsPerPoint)
	}
	return nil
}
