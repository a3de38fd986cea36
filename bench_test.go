// Benchmarks regenerating each of the paper's tables and figures at bench
// scale, plus microbenchmarks of the pipeline stages. cmd/benchtab prints
// the paper-formatted rows; these benches track the cost of each
// experiment and of the kernels underneath it.
//
//	go test -bench=. -benchmem
package keybin2_test

import (
	"fmt"
	"testing"

	"keybin2/internal/core"
	"keybin2/internal/dbscan"
	"keybin2/internal/experiments"
	"keybin2/internal/histogram"
	"keybin2/internal/kmeans"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/partition"
	"keybin2/internal/projection"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// benchScale sizes the experiment grid for benchmarking: one repeat, small
// shards, the full design otherwise.
func benchScale() experiments.Scale {
	s := experiments.Default()
	s.PointsPerProc = 1500
	s.Repeats = 1
	s.Procs = 2
	s.DimLadder = []int{20, 80}
	s.ProcLadder = []int{1, 2}
	s.Table2Dims = 80
	s.TrajectoryFrameDiv = 20
	return s
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if rows := experiments.Table1(s); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if rows := experiments.Table2(s); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if st := experiments.Table3(s); st.Count != 31 {
			b.Fatal("bad suite")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if rows := experiments.Figure1(s); len(rows) != 6 {
			b.Fatal("panels")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if _, err := experiments.Figure2(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if _, err := experiments.Figure3(s, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if _, err := experiments.Figure4(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAPartitioners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if rows := experiments.AblationA(s); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationBTargetDims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if rows := experiments.AblationB(s); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationCReduceTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchScale()
		s.Seed = int64(i + 1)
		if rows := experiments.AblationC(s); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- pipeline-stage microbenchmarks ---

// BenchmarkFitByDims tracks the Table 1 scaling claim at the kernel level:
// serial KeyBin2 fit cost as dimensionality quadruples.
func BenchmarkFitByDims(b *testing.B) {
	for _, dims := range []int{20, 80, 320} {
		spec := synth.AutoMixture(4, dims, 6, 1, xrand.New(1))
		data, _ := spec.Sample(4000, xrand.New(2))
		b.Run(fmt.Sprintf("dims%d", dims), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Fit(data, core.Config{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKMeansByDims is the baseline counterpart of BenchmarkFitByDims.
func BenchmarkKMeansByDims(b *testing.B) {
	for _, dims := range []int{20, 80, 320} {
		spec := synth.AutoMixture(4, dims, 6, 1, xrand.New(1))
		data, _ := spec.Sample(4000, xrand.New(2))
		b.Run(fmt.Sprintf("dims%d", dims), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kmeans.Fit(data, kmeans.Config{K: 4, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProjection(b *testing.B) {
	data := linalg.NewMatrix(10000, 320)
	rng := xrand.New(1)
	for i := range data.Data {
		data.Data[i] = rng.Norm()
	}
	batch, err := projection.NewBatch(projection.Gaussian, 320, projection.TargetDims(320), 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Mul(nil, data, batch.Joined); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyAssignment(b *testing.B) {
	set, err := histogram.NewSet(make([]float64, 13), ones(13, 1), 9)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	points := make([][]float64, 10000)
	for i := range points {
		points[i] = make([]float64, 13)
		for j := range points[i] {
			points[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			set.AddPoint(p)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "points/s")
}

func ones(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func BenchmarkHistogramMerge(b *testing.B) {
	mk := func() *histogram.Set {
		set, _ := histogram.NewSet(make([]float64, 16), ones(16, 1), 9)
		rng := xrand.New(2)
		p := make([]float64, 16)
		for i := 0; i < 1000; i++ {
			for j := range p {
				p[j] = rng.Float64()
			}
			set.AddPoint(p)
		}
		return set
	}
	a, c := mk(), mk()
	enc := c.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := histogram.DecodeSet(a.Encode())
		if err != nil {
			b.Fatal(err)
		}
		in, err := histogram.DecodeSet(enc)
		if err != nil {
			b.Fatal(err)
		}
		if err := acc.Merge(in); err != nil {
			b.Fatal(err)
		}
		acc.Encode()
	}
}

func BenchmarkPartition(b *testing.B) {
	h := histogram.New(0, 100, 9)
	rng := xrand.New(3)
	for i := 0; i < 100000; i++ {
		c := 25.0
		if i%2 == 0 {
			c = 75
		}
		h.Add(rng.Gaussian(c, 6))
	}
	for _, method := range []partition.Method{partition.DiscreteOpt, partition.KDE, partition.Threshold} {
		b.Run(method.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := partition.Partition(h, method)
				if res.Segments() < 1 {
					b.Fatal("no segments")
				}
			}
		})
	}
}

// BenchmarkStreamIngest measures per-point in-situ cost (the paper reports
// ~0.0004 s/frame on its protein workload).
func BenchmarkStreamIngest(b *testing.B) {
	st, err := core.NewStream(core.StreamConfig{
		Config: core.Config{Seed: 1}, Dims: 32,
		RawRanges: rawRanges(32), Period: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := synth.AutoMixture(3, 32, 6, 1, xrand.New(4))
	src := spec.Stream(0, xrand.New(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _, _ := src.Next()
		if _, err := st.Ingest(x); err != nil {
			b.Fatal(err)
		}
	}
}

func rawRanges(dims int) [][2]float64 {
	out := make([][2]float64, dims)
	for j := range out {
		out[j] = [2]float64{-12, 12}
	}
	return out
}

// BenchmarkDistributedFitByRanks tracks weak-scaling cost of the
// distributed fit on in-process ranks.
func BenchmarkDistributedFitByRanks(b *testing.B) {
	for _, ranks := range []int{1, 2, 4, 8} {
		spec := synth.AutoMixture(4, 64, 6, 1, xrand.New(1))
		data, _ := spec.Sample(ranks*2000, xrand.New(2))
		shards := make([]*linalg.Matrix, ranks)
		for r := 0; r < ranks; r++ {
			lo, hi := synth.Shard(data.Rows, ranks, r)
			shards[r] = linalg.NewMatrix(hi-lo, data.Cols)
			copy(shards[r].Data, data.Data[lo*data.Cols:hi*data.Cols])
		}
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					_, _, err := core.FitDistributed(c, shards[c.Rank()], core.Config{Seed: int64(i)})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReduceTopology compares binomial-tree and ring consolidation of
// a realistic histogram payload.
func BenchmarkReduceTopology(b *testing.B) {
	const ranks = 8
	payload := make([]uint64, 5*13*512) // 5 trials × 13 dims × 512 bins
	for i := range payload {
		payload[i] = uint64(i % 97)
	}
	for _, ring := range []bool{false, true} {
		name := "tree"
		if ring {
			name = "ring"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					var err error
					if ring {
						_, err = c.RingAllreduce(mpi.EncodeUint64s(payload), mpi.SumUint64s)
					} else {
						_, err = c.Allreduce(mpi.EncodeUint64s(payload), mpi.SumUint64s)
					}
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelCodec measures checkpoint serialization round trips.
func BenchmarkModelCodec(b *testing.B) {
	spec := synth.AutoMixture(4, 64, 6, 1, xrand.New(3))
	data, _ := spec.Sample(5000, xrand.New(4))
	model, _, err := core.Fit(data, core.Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := model.Encode()
		if _, err := core.DecodeModel(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBSCANDistributed measures the comparator's distributed cost —
// the data-movement-heavy path KeyBin2 avoids.
func BenchmarkDBSCANDistributed(b *testing.B) {
	spec := synth.AutoMixture(3, 4, 6, 0.4, xrand.New(6))
	data, _ := spec.Sample(4000, xrand.New(7))
	const ranks = 4
	shards := make([]*linalg.Matrix, ranks)
	for r := 0; r < ranks; r++ {
		lo, hi := synth.Shard(data.Rows, ranks, r)
		shards[r] = linalg.NewMatrix(hi-lo, data.Cols)
		copy(shards[r].Data, data.Data[lo*data.Cols:hi*data.Cols])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			_, err := dbscan.FitDistributed(c, shards[c.Rank()], dbscan.Config{Eps: 0.5, MinPts: 5})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
