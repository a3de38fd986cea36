package core

import (
	"fmt"
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// Labeling-kernel microbenchmarks: the packed tuple keys, with zero
// allocations per point in the steady-state inner loop. (Against the
// string keys they replaced, packing bought ≥3× on tuple counting and
// batch labelling.)
//
//	go test ./internal/core -bench 'TupleCount|AssignAll' -benchmem

const (
	benchRows = 20000
	benchDims = 8
)

func benchKernelFixture(b *testing.B) (*linalg.Matrix, *Model) {
	b.Helper()
	spec := synth.AutoMixture(4, benchDims, 5, 1, xrand.New(41))
	data, _ := spec.Sample(benchRows, xrand.New(42))
	view, set := binView(data, 8)
	parts, collapsed := partitionSet(set)
	k := newTrialKeys(set, parts, collapsed)
	if k.lab.words() != 1 {
		b.Fatal("bench fixture overflowed 64 bits")
	}
	tuples := countOne(view, k, 0)
	model, err := trialModel(set, parts, collapsed, tuples, 2, maxClusters, 0)
	if err != nil {
		b.Fatal(err)
	}
	model.finish(nil)
	return data, model
}

// BenchmarkTupleCount times the fit's count pass: tuple keys read from
// stored bins (binned once, outside the timing) into per-worker tables.
func BenchmarkTupleCount(b *testing.B) {
	data, model := benchKernelFixture(b)
	view, _ := binView(data, 8)
	packed := newTrialKeys(model.Set, model.Parts, model.Collapsed)
	for _, workers := range []int{1, 4} {
		b.Run(name("packed", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countOne(view, packed, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
	}
}

// BenchmarkFit is bench/'s fit_batch round at its exact shape, so the fit
// can be profiled without the bench module: 250k × 64 points of
// AutoMixture(8, 64, 6, 1), two one-rank fits and two two-rank fits with
// seeds 11–14.
//
//	go test -run '^$' -bench '^BenchmarkFit$' -benchtime 3x -cpuprofile cpu.out ./internal/core
func BenchmarkFit(b *testing.B) {
	spec := synth.AutoMixture(8, 64, 6, 1, xrand.New(1))
	data, _ := spec.Sample(250000, xrand.New(4).Split("fit"))
	half := data.Rows / 2
	halves := []*linalg.Matrix{
		{Rows: half, Cols: data.Cols, Data: data.Data[:half*data.Cols]},
		{Rows: data.Rows - half, Cols: data.Cols, Data: data.Data[half*data.Cols:]},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seed := range []int64{11, 12} {
			if _, _, err := Fit(data, Config{Seed: seed}); err != nil {
				b.Fatal(err)
			}
		}
		for _, seed := range []int64{13, 14} {
			err := mpi.Run(2, func(c *mpi.Comm) error {
				_, _, err := FitDistributed(c, halves[c.Rank()], Config{Seed: seed})
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(4*data.Rows)*float64(b.N)/b.Elapsed().Seconds(), "pts/s")
}

// BenchmarkAssignAll times AssignBatch: the whole kernel fixture under
// its unprojected model, and /label-sized queries of 1, 64 and 1,024 rows
// on one worker under a projected model of 16 dims and N_rp 6.
func BenchmarkAssignAll(b *testing.B) {
	data, model := benchKernelFixture(b)
	for _, workers := range []int{1, 4} {
		b.Run(name("packed", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = model.AssignBatch(data, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
	}
	raw, _ := synth.AutoMixture(4, 16, 5, 1, xrand.New(43)).Sample(benchRows, xrand.New(44))
	projected, _, err := Fit(raw, Config{Seed: 45, TargetDims: 6})
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("query/%d", rows), func(b *testing.B) {
			query := &linalg.Matrix{Rows: rows, Cols: raw.Cols, Data: raw.Data[:rows*raw.Cols]}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = projected.AssignBatch(query, 1)
			}
		})
	}
}

func name(kind string, workers int) string {
	if workers == 1 {
		return kind + "/serial"
	}
	return kind + "/parallel"
}

func nsPerPoint(b *testing.B) float64 {
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(benchRows)
}
