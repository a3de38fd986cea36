package linalg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"keybin2/internal/xrand"
)

// kernels lists every projection kernel this CPU runs, not only the one
// dispatch picks: on an AVX-512 host the AVX2 kernel still serves
// AVX2-only machines and must stay bit-identical too.
func kernels() []kernel {
	var ks []kernel
	for k := portable; k <= best; k++ {
		ks = append(ks, k)
	}
	return ks
}

func (k kernel) String() string {
	return [...]string{"portable", "avx2", "avx512"}[k]
}

// rowsOf is the view of rows [lo,hi) of m, as the block stores cut them.
func rowsOf(m *Matrix, lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// guarded returns a rows×c matrix of NaN (a kernel must overwrite, not
// accumulate) whose backing array runs on past the matrix with sentinels.
func guarded(rows, c int) (*Matrix, []float64) {
	buf := make([]float64, rows*c+9)
	for i := range buf {
		buf[i] = math.NaN()
	}
	for i := rows * c; i < len(buf); i++ {
		buf[i] = 12345
	}
	return &Matrix{Rows: rows, Cols: c, Data: buf[:rows*c]}, buf[rows*c:]
}

func checkGuard(t *testing.T, what string, tail []float64) {
	t.Helper()
	for i, v := range tail {
		if v != 12345 {
			t.Fatalf("%s: float %d past the end written (%v)", what, i, v)
		}
	}
}

// sameBits compares with math.Float64bits; nanOK lets any two NaNs match,
// for inputs whose NaN payloads depend on operand order.
func sameBits(x, y float64, nanOK bool) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (nanOK && math.IsNaN(x) && math.IsNaN(y))
}

// projectionOperands draws a (values ~100, with exact zeros where the
// portable loop skips: a whole row, a whole k pair, single entries incl.
// the odd last k, and a −0) and b (zeros as the Achlioptas projection has).
func projectionOperands(rows, n, c int) (a, b *Matrix) {
	rng := xrand.New(int64(rows*1000003 + n*1009 + c))
	a = NewMatrix(rows, n)
	for i := range a.Data {
		a.Data[i] = rng.Norm() * 100
	}
	b = NewMatrix(n, c)
	for i := range b.Data {
		b.Data[i] = rng.Norm()
	}
	if rows > 2 {
		for k := 0; k < n; k++ {
			a.Set(1, k, 0)
		}
		a.Set(2, 0, 0)
		if n > 1 {
			a.Set(2, 1, math.Copysign(0, -1))
		}
		a.Set(0, n-1, 0)
	}
	for i := 0; i < len(b.Data); i += 3 {
		b.Data[i] = 0
	}
	return a, b
}

// TestMulKernelBitIdentical holds every kernel the CPU runs, on b as
// stored (Mul) and on b packed (MulPacked), to the portable loop bit for
// bit: every label downstream depends on it.
func TestMulKernelBitIdentical(t *testing.T) {
	t.Logf("dispatch picks %v", best)
	shapes := []struct{ rows, n, c int }{
		{7, 64, 45}, {1030, 64, 45}, {33, 16, 18}, {5, 16, 9},
		{9, 1, 45}, {9, 2, 4}, {9, 3, 5}, {9, 63, 45}, {9, 17, 18}, {9, 33, 45},
		{6, 8, 1}, {6, 8, 3}, {6, 9, 3}, {6, 1, 1}, {6, 1, 80}, {6, 2, 80},
		{0, 8, 16}, {1, 64, 45}, {1, 1, 1}, {2, 65, 80}, {3, 64, 96}, {3, 7, 97},
	}
	// Every c mod 16 up to 80 (5 trials × N_rp 16, the paper's headline),
	// with an even and an odd n.
	for c := 1; c <= 80; c++ {
		for _, s := range []struct{ rows, n, c int }{{6, 8, c}, {5, 9, c}} {
			if !slices.Contains(shapes, s) {
				shapes = append(shapes, s)
			}
		}
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.n, s.c), func(t *testing.T) {
			a, b := projectionOperands(s.rows, s.n, s.c)
			want := NewMatrix(s.rows, s.c)
			mulRangeGeneric(want, a, b, 0, s.rows)
			p := Pack(b)
			for _, k := range kernels() {
				t.Run(k.String(), func(t *testing.T) {
					check := func(what string, got *Matrix) {
						t.Helper()
						for i := range want.Data {
							if !sameBits(got.Data[i], want.Data[i], false) {
								t.Fatalf("%s row %d col %d: kernel %x (%v) portable %x (%v)", what, i/s.c, i%s.c,
									math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
							}
						}
					}
					// Two ranges, as the block store splits them, the
					// later one first: a row written past column c would
					// clobber the start of a row already in place.
					mid := s.rows / 3
					got, tail := guarded(s.rows, s.c)
					mulRangeWith(k, got, a, b, mid, s.rows)
					mulRangeWith(k, got, a, b, 0, mid)
					check("unpacked", got)
					checkGuard(t, "unpacked", tail)

					got, tail = guarded(s.rows, s.c)
					mulPacked(k, rowsOf(got, mid, s.rows), rowsOf(a, mid, s.rows), p, nil, nil)
					mulPacked(k, rowsOf(got, 0, mid), rowsOf(a, 0, mid), p, nil, nil)
					check("packed", got)
					checkGuard(t, "packed", tail)
				})
			}
		})
	}
}

// TestMulPackedRanges holds the range every kernel widens alongside the
// product (fused into the AVX-512 kernel, a WidenRanges pass after the
// others) to WidenRanges over the portable product, bit for bit, with NaN,
// ±Inf and ±0 in a, zero rows, and starting ranges that hold ±0.
func TestMulPackedRanges(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	// ranges returns starting ranges: empty, or a zero extremum of either
	// sign already there; with sentinels past column c.
	ranges := func(c int) (mins, maxs, minTail, maxTail []float64) {
		lo, minTail := guarded(1, c)
		hi, maxTail := guarded(1, c)
		for j := range lo.Data {
			switch j % 4 {
			case 1:
				lo.Data[j], hi.Data[j] = math.Copysign(0, -1), 0
			case 2:
				lo.Data[j], hi.Data[j] = 0, math.Copysign(0, -1)
			default:
				lo.Data[j], hi.Data[j] = math.Inf(1), math.Inf(-1)
			}
		}
		return lo.Data, hi.Data, minTail, maxTail
	}
	for _, s := range []struct{ rows, n, c int }{
		{40, 64, 45}, {40, 33, 45}, {17, 16, 18}, {9, 1, 7}, {9, 2, 48}, {9, 5, 49}, {6, 9, 80}, {2, 3, 1}, {1, 64, 45},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", s.rows, s.n, s.c), func(t *testing.T) {
			a, b := projectionOperands(s.rows, s.n, s.c)
			rng := xrand.New(int64(s.c))
			for i := 3; i < len(a.Data); i += 7 {
				a.Data[i] = specials[rng.Intn(len(specials))]
			}
			if s.rows > 4 {
				clear(a.Row(4))
			}
			want := NewMatrix(s.rows, s.c)
			mulRangeGeneric(want, a, b, 0, s.rows)
			wantMins, wantMaxs, _, _ := ranges(s.c)
			WidenRanges(wantMins, wantMaxs, want.Data)
			p := Pack(b)
			for _, k := range kernels() {
				t.Run(k.String(), func(t *testing.T) {
					got, tail := guarded(s.rows, s.c)
					mins, maxs, minTail, maxTail := ranges(s.c)
					mid := s.rows / 2
					mulPacked(k, rowsOf(got, mid, s.rows), rowsOf(a, mid, s.rows), p, mins, maxs)
					mulPacked(k, rowsOf(got, 0, mid), rowsOf(a, 0, mid), p, mins, maxs)
					for i := range want.Data {
						if !sameBits(got.Data[i], want.Data[i], true) {
							t.Fatalf("row %d col %d: kernel %v portable %v", i/s.c, i%s.c, got.Data[i], want.Data[i])
						}
					}
					for j := range wantMins {
						if !sameBits(mins[j], wantMins[j], false) || !sameBits(maxs[j], wantMaxs[j], false) {
							t.Fatalf("col %d: range %x..%x (%v..%v), WidenRanges %x..%x (%v..%v)", j,
								math.Float64bits(mins[j]), math.Float64bits(maxs[j]), mins[j], maxs[j],
								math.Float64bits(wantMins[j]), math.Float64bits(wantMaxs[j]), wantMins[j], wantMaxs[j])
						}
					}
					checkGuard(t, "dst", tail)
					checkGuard(t, "mins", minTail)
					checkGuard(t, "maxs", maxTail)
				})
			}
		})
	}
}
