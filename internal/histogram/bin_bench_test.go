package histogram

import "testing"

// BenchmarkHistBin tracks the cost of the binning primitive that sits inside
// the per-point·per-dimension labeling loop. With the cached inverse bin
// width this is one multiply, one compare, one truncation — no division.
func BenchmarkHistBin(b *testing.B) {
	h := New(-3, 3, 9)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = -3.5 + 7*float64(i)/float64(len(xs)) // includes out-of-range edges
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += h.Bin(xs[i&1023])
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkHistAdd measures the binning+count step of the fit's bin pass.
func BenchmarkHistAdd(b *testing.B) {
	h := New(-3, 3, 9)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = -3 + 6*float64(i)/float64(len(xs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(xs[i&1023])
	}
}
