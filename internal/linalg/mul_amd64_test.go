package linalg

import (
	"fmt"
	"math"
	"testing"

	"keybin2/internal/xrand"
)

// TestMulKernelBitIdentical holds the AVX2 kernel to the portable loop bit
// for bit: every label downstream depends on it.
func TestMulKernelBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2")
	}
	shapes := []struct{ rows, n, c int }{
		{7, 64, 45}, {1030, 64, 45}, {33, 16, 18}, {5, 16, 9},
		{9, 1, 45}, {9, 2, 4}, {9, 3, 5}, {9, 63, 45}, {9, 17, 18},
		{6, 8, 1}, {6, 8, 3}, {6, 9, 3},
		{6, 8, 4}, {6, 8, 6}, {6, 8, 7}, {6, 8, 8}, {6, 8, 11}, {6, 8, 12}, {6, 8, 13},
		{6, 8, 15}, {6, 8, 16}, {6, 8, 17}, {6, 8, 20}, {6, 8, 25}, {6, 8, 31}, {6, 8, 32},
		{0, 8, 16}, {1, 64, 45},
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.n, s.c), func(t *testing.T) {
			rng := xrand.New(int64(s.rows*1000003 + s.n*1009 + s.c))
			a := NewMatrix(s.rows, s.n)
			for i := range a.Data {
				a.Data[i] = rng.Norm() * 100
			}
			b := NewMatrix(s.n, s.c)
			for i := range b.Data {
				b.Data[i] = rng.Norm()
			}
			// Exact zeros where the portable loop skips: a whole row, a
			// whole k pair, single entries (incl. the odd last k), and a
			// negative zero; zeros in b as the Achlioptas projection has.
			if s.rows > 2 {
				for k := 0; k < s.n; k++ {
					a.Set(1, k, 0)
				}
				a.Set(2, 0, 0)
				if s.n > 1 {
					a.Set(2, 1, math.Copysign(0, -1))
				}
				a.Set(0, s.n-1, 0)
			}
			for i := 0; i < len(b.Data); i += 3 {
				b.Data[i] = 0
			}
			want := NewMatrix(s.rows, s.c)
			got := NewMatrix(s.rows, s.c)
			for i := range got.Data {
				got.Data[i] = math.NaN() // the kernel must overwrite, not accumulate
			}
			mulRangeGeneric(want, a, b, 0, s.rows)
			// Two ranges, as ParallelMul splits them.
			mid := s.rows / 3
			mulRange(got, a, b, 0, mid)
			mulRange(got, a, b, mid, s.rows)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("row %d col %d: kernel %x (%v) portable %x (%v)", i/s.c, i%s.c,
						math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
				}
			}
		})
	}
}
