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

// BenchmarkBinKernels times every bin kernel this CPU runs on a 1024-row
// block: at the batch fit's shape, 45 columns into 512 bins, alone and
// followed by the fit's count of the stored bins, and at the stream's, 18
// columns into 256 bins. The count runs on two layouts: one slab with a
// 528-counter column stride, as the fit keeps it, and 512 counters per
// column (the stride a histogram's own Counts arrays land at, which puts
// bin b of every column at one offset modulo 4 KB).
func BenchmarkBinKernels(b *testing.B) {
	const rows = 1024
	for _, s := range []struct {
		name        string
		cols, nbins int
		stride      int // 0: bin only
	}{
		{"fit-45x512", 45, 512, 0},
		{"fit-45x512+count-stride528", 45, 512, 512 + 16},
		{"fit-45x512+count-stride512", 45, 512, 512},
		{"stream-18x256", 18, 256, 0},
	} {
		rng := xrand.New(1)
		x := make([]float64, rows*s.cols)
		for i := range x {
			x[i] = rng.Norm() * 100
		}
		lo, iw := make([]float64, s.cols), make([]float64, s.cols)
		for j := range lo {
			lo[j], iw[j] = -400, float64(s.nbins)/800
		}
		dst := make([]uint16, len(x))
		counts := make([]uint64, s.cols*s.stride)
		for _, k := range kernels() {
			b.Run(s.name+"/"+k.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					binRows(k, dst, x, s.cols, lo, iw, s.nbins)
					if s.stride == 0 {
						continue
					}
					for off := 0; off < len(dst); off += s.cols {
						for j, bin := range dst[off : off+s.cols] {
							counts[j*s.stride+int(bin)]++
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows)/float64(b.N), "ns/row")
			})
		}
	}
}
