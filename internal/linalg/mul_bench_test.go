package linalg

import (
	"testing"

	"keybin2/internal/xrand"
)

// BenchmarkMulProjection measures Mul at the ingest hot path's shape: a
// chunk of points (tall) times a joined projection (skinny).
func BenchmarkMulProjection(b *testing.B) {
	const rows, dims, cols = 1024, 16, 9
	rng := xrand.New(1)
	a := NewMatrix(rows, dims)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	p := NewMatrix(dims, cols)
	for i := range p.Data {
		p.Data[i] = rng.Float64()
	}
	dst := NewMatrix(rows, cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mul(dst, a, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "pts/s")
}

// BenchmarkProjectionKernels times every kernel this CPU runs on a
// 1024-row block (blockRows in internal/core) at the batch fit's shape, 64
// dims through 5 trials × 9 = 45 columns with the per-column range widened
// as the fit does, and at the stream's, 16 dims through 18 columns.
func BenchmarkProjectionKernels(b *testing.B) {
	for _, s := range []struct {
		name       string
		n, c       int
		withRanges bool
	}{
		{"fit-64x45", 64, 45, true},
		{"stream-16x18", 16, 18, false},
	} {
		const rows = 1024
		rng := xrand.New(1)
		a := NewMatrix(rows, s.n)
		for i := range a.Data {
			a.Data[i] = rng.Norm() * 100
		}
		p := NewMatrix(s.n, s.c)
		for i := range p.Data {
			p.Data[i] = rng.Norm()
		}
		packed := Pack(p)
		dst := NewMatrix(rows, s.c)
		var mins, maxs []float64
		if s.withRanges {
			mins, maxs = make([]float64, s.c), make([]float64, s.c)
		}
		for _, k := range kernels() {
			b.Run(s.name+"/"+k.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mulPacked(k, dst, a, packed, mins, maxs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows)/float64(b.N), "ns/row")
			})
		}
	}
}
