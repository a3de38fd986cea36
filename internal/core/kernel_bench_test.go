package core

import (
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// Labeling-kernel microbenchmarks: the packed-uint64 fast path against the
// legacy string-keyed baseline (kept as the >64-bit fallback). The packed
// path was held to ≥3× the throughput on tuple counting and batch labelling,
// with zero allocations per point in the steady-state inner loop.
//
//	go test ./internal/core -bench 'TupleCount|AssignAll|LabelerKey' -benchmem

const (
	benchRows = 20000
	benchDims = 8
)

func benchKernelFixture(b *testing.B) (*linalg.Matrix, *Model) {
	b.Helper()
	spec := synth.AutoMixture(4, benchDims, 5, 1, xrand.New(41))
	data, _ := spec.Sample(benchRows, xrand.New(42))
	view, set := binView(data, 8)
	parts, collapsed := partitionSet(set, Config{CollapseRelax: 1})
	k := newTrialKeys(set, parts, collapsed)
	if k.lab == nil {
		b.Fatal("bench fixture overflowed 64 bits")
	}
	tuples := countOne(view, k, 0)
	model, err := trialModel(set, parts, collapsed, tuples, Config{MinClusterSize: 2, MaxClusters: 256}, 0)
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
	str := trialKeys{parts: model.Parts, collapsed: model.Collapsed}
	for _, workers := range []int{1, 4} {
		b.Run(name("string", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countOne(view, str, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
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

func BenchmarkAssignAll(b *testing.B) {
	data, model := benchKernelFixture(b)
	strModel := forceStringBenchModel(model)
	for _, workers := range []int{1, 4} {
		b.Run(name("string", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = strModel.AssignBatch(data, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
		b.Run(name("packed", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = model.AssignBatch(data, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
	}
}

// BenchmarkLabelerKey isolates the steady-state per-point kernel: bin every
// dimension, fuse bin→segment via LUT, OR the fields together. Must report
// 0 allocs/op.
func BenchmarkLabelerKey(b *testing.B) {
	data, model := benchKernelFixture(b)
	lab := model.lab
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= lab.key(data.Row(i % benchRows))
	}
	if sink == 1 {
		b.Log("unlikely")
	}
}

// BenchmarkAssignProjected measures the public per-point labeling call used
// by the in-situ path (Stream.Ingest / Model.Assign). Packed models must be
// allocation-free.
func BenchmarkAssignProjected(b *testing.B) {
	data, model := benchKernelFixture(b)
	strModel := forceStringBenchModel(model)
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			strModel.AssignProjected(data.Row(i % benchRows))
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.AssignProjected(data.Row(i % benchRows))
		}
	})
}

func forceStringBenchModel(m *Model) *Model {
	sm := *m
	sm.codec = tupleCodec{}
	sm.lab = nil
	sm.installLabels(identityLabels(len(sm.Clusters)))
	return &sm
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
