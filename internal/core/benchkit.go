package core

import (
	"fmt"
	"time"

	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
)

// KernelTimings reports steady-state per-point costs of the labeling
// pipeline's kernels, in nanoseconds per point. It feeds the repo's perf
// trajectory (cmd/benchjson writes it to BENCH_keybin2.json) so regressions
// in the hot path are visible across PRs.
type KernelTimings struct {
	// KeyAssignNsPerPoint is the label loop over projected blocks of
	// blockRows rows: linalg.BinRows, the packed tuple keys from the
	// stored bins through the segment tables, and the label lookup.
	KeyAssignNsPerPoint float64 `json:"key_assign_ns_per_point"`
	// TupleCountNsPerPoint is the fit's parallel tuple-counting pass over
	// stored bins (one trial's columns, binned beforehand).
	TupleCountNsPerPoint float64 `json:"tuple_count_ns_per_point"`
	// FitNsPerPoint is the end-to-end serial Fit, amortized per point.
	FitNsPerPoint float64 `json:"fit_ns_per_point"`
	// Points and Dims describe the fixture the timings were taken on.
	Points int `json:"points"`
	Dims   int `json:"dims"`
}

// MeasureKernels fits data once and then times the labeling kernels on the
// winning trial, repeating each measurement `reps` times (≥1) and keeping
// the fastest — the standard microbenchmark convention for steady-state
// cost. It is intentionally lightweight: a perf-tracking harness, not a
// substitute for `go test -bench`.
func MeasureKernels(data *linalg.Matrix, cfg Config, reps int) (KernelTimings, error) {
	kt := KernelTimings{Points: data.Rows, Dims: data.Cols}
	// fastest runs fn reps times (at least once) and keeps the shortest run.
	fastest := func(fn func() error) (time.Duration, error) {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < max(reps, 1); r++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			best = min(best, time.Since(start))
		}
		return best, nil
	}

	// End-to-end fit (includes projection, binning, partitioning, trials).
	var model *Model
	fitBest, err := fastest(func() (err error) {
		model, _, err = Fit(data, cfg)
		return err
	})
	if err != nil {
		return kt, fmt.Errorf("core: measure fit: %w", err)
	}
	kt.FitNsPerPoint = float64(fitBest.Nanoseconds()) / float64(data.Rows)

	// Project once so the kernel timings isolate labeling, not projection.
	proj, err := project(data, model.packed, cfg.Workers)
	if err != nil {
		return kt, err
	}
	defer proj.release()

	// The label loop over the projected blocks (the in-situ hot path):
	// bin a block, key its stored bins, look up each key's label.
	bins, keys := make([]uint16, blockRows*proj.cols), make([]uint64, blockRows*model.lab.words())
	labels := make([]int, blockRows)
	assignBest, _ := fastest(func() error {
		for _, rows := range proj.blocks {
			model.labelProjected(labels[:len(rows)/proj.cols], keys, bins, rows)
		}
		return nil
	})
	kt.KeyAssignNsPerPoint = float64(assignBest.Nanoseconds()) / float64(proj.rows)

	// The fit's count pass over the winning trial's columns, binned once.
	binAll(proj, []*histogram.Set{model.Set.Clone()}, cfg.Workers)
	keyings := []trialKeys{newTrialKeys(model.Set, model.Parts, model.Collapsed)}
	countBest, _ := fastest(func() error {
		countTuples(proj, keyings, cfg.Workers)
		return nil
	})
	kt.TupleCountNsPerPoint = float64(countBest.Nanoseconds()) / float64(proj.rows)
	return kt, nil
}
