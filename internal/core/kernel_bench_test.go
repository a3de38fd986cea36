package core

import (
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// Labeling-kernel microbenchmarks: the packed-uint64 fast path against the
// legacy string-keyed baseline (kept as the >64-bit fallback). The issue's
// acceptance bar is ≥3× throughput on tuple counting + assignAll with zero
// allocations per point in the steady-state inner loop.
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
	view := viewOf(data)
	set, err := buildSet(view, 0, view.mins, view.maxs, 8, 0)
	if err != nil {
		b.Fatal(err)
	}
	parts, collapsed := partitionSet(set, Config{CollapseRelax: 1})
	codec := newTupleCodec(parts, collapsed)
	if !codec.fits {
		b.Fatal("bench fixture overflowed 64 bits")
	}
	tuples := countTuples(view, 0, set, parts, collapsed, codec, 0)
	model, err := trialModel(set, parts, collapsed, tuples, Config{MinClusterSize: 2, MaxClusters: 256}, 0)
	if err != nil {
		b.Fatal(err)
	}
	model.finish(nil)
	return data, model
}

func BenchmarkTupleCount(b *testing.B) {
	data, model := benchKernelFixture(b)
	view := viewOf(data)
	for _, workers := range []int{1, 4} {
		b.Run(name("string", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countTuplesString(view, 0, model.Set, model.Parts, model.Collapsed, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
		b.Run(name("packed", workers), func(b *testing.B) {
			lab := model.lab
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				countTuplesPacked(view, 0, lab, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
	}
}

func BenchmarkAssignAll(b *testing.B) {
	data, model := benchKernelFixture(b)
	view := viewOf(data)
	strModel := forceStringBenchModel(model)
	for _, workers := range []int{1, 4} {
		b.Run(name("string", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assignAll(view, 0, strModel, workers)
			}
			b.ReportMetric(nsPerPoint(b), "ns/point")
		})
		b.Run(name("packed", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assignAll(view, 0, model, workers)
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
