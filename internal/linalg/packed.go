package linalg

import (
	"fmt"
	"unsafe"
)

// kernel names a projection kernel. The kernels form a ladder: a CPU that
// runs one runs every one below it, and best (per architecture) is the top
// rung this CPU runs. All of them produce the same bits (see
// mulRangeGeneric).
type kernel int

const (
	portable kernel = iota // mulRangeGeneric, then WidenRanges
	avx2                   // mulRowsAVX2 on b as stored, then WidenRanges
	avx512                 // mulRowsAVX512 on the packed panels, ranges fused
)

// panelCols is the width of the column panels Pack cuts: six 8-lane ZMM
// accumulators, which the AVX-512 kernel holds for a whole row's k loop.
const panelCols = 48

// Packed is the right-hand operand of a projection, b, stored twice: as the
// matrix itself, which the AVX2 and portable kernels read, and cut into
// column panels for the AVX-512 kernel. Panel p holds columns
// [p·panelCols, …) of every row of b, row-major, padded with zero columns
// to a whole number of 8-lane vectors, and starts on a 64-byte boundary, so
// no load the kernel issues splits a cache line. Pack a projection once and
// reuse it for every product; b must not change afterwards.
type Packed struct {
	m      *Matrix
	panels []float64
}

// Pack lays b out for MulPacked.
func Pack(b *Matrix) *Packed {
	n, c := b.Rows, b.Cols
	size := 0
	for p0 := 0; p0 < c; p0 += panelCols {
		size += n * panelWidth(c-p0)
	}
	panels := alignedFloats(size)
	off := 0
	for p0 := 0; p0 < c; p0 += panelCols {
		w := panelWidth(c - p0)
		for k := 0; k < n; k++ {
			copy(panels[off+k*w:], b.Data[k*c+p0:k*c+min(p0+panelCols, c)])
		}
		off += n * w
	}
	return &Packed{m: b, panels: panels}
}

// panelWidth is the padded width of a panel whose first column has left
// columns at or after it.
func panelWidth(left int) int { return min(panelCols, (left+7)&^7) }

// alignedFloats returns n zeroed floats starting on a 64-byte boundary. The
// Go heap does not move objects, so the alignment holds for the slice's
// life.
func alignedFloats(n int) []float64 {
	buf := make([]float64, n+7)
	skip := int(-uintptr(unsafe.Pointer(&buf[0]))&63) / 8
	return buf[skip : skip+n : skip+n]
}

// Rows returns the row count of the packed matrix.
func (p *Packed) Rows() int { return p.m.Rows }

// Cols returns the column count of the packed matrix.
func (p *Packed) Cols() int { return p.m.Cols }

// MulPacked computes dst = a×b, the product Mul computes, bit for bit, on
// the fastest kernel the CPU runs. When mins is not nil it also widens
// mins/maxs (b.Cols() long each) to cover every row of dst, as WidenRanges
// does; the AVX-512 kernel does that from its registers, before the store,
// so the projected rows are not read a second time.
func MulPacked(dst, a *Matrix, b *Packed, mins, maxs []float64) error {
	n, c := b.Rows(), b.Cols()
	if a.Cols != n || dst.Rows != a.Rows || dst.Cols != c ||
		len(a.Data) < a.Rows*n || len(dst.Data) < a.Rows*c {
		return fmt.Errorf("%w: %dx%d × packed %dx%d into %dx%d", ErrShape, a.Rows, a.Cols, n, c, dst.Rows, dst.Cols)
	}
	if len(mins) != len(maxs) || (mins != nil && len(mins) != c) {
		return fmt.Errorf("%w: ranges of %d and %d columns for %d", ErrShape, len(mins), len(maxs), c)
	}
	mulPacked(best, dst, a, b, mins, maxs)
	return nil
}

// mulPacked is MulPacked on kernel k, which the CPU must run.
func mulPacked(k kernel, dst, a *Matrix, b *Packed, mins, maxs []float64) {
	if k == avx512 && a.Rows > 0 && a.Cols > 0 && b.Cols() > 0 {
		var lo, hi *float64
		if mins != nil {
			lo, hi = &mins[0], &maxs[0]
		}
		mulRowsAVX512(&dst.Data[0], &a.Data[0], &b.panels[0], a.Rows, a.Cols, b.Cols(), lo, hi)
		return
	}
	mulRangeWith(k, dst, a, b.m, 0, a.Rows)
	if mins != nil {
		WidenRanges(mins, maxs, dst.Data[:a.Rows*b.Cols()])
	}
}

// WidenRanges extends the per-column ranges mins/maxs to cover every row of
// the row-major rows (len(mins) columns wide). A NaN never widens a range,
// and a zero that meets a zero of the other sign keeps the one already
// there.
func WidenRanges(mins, maxs, rows []float64) {
	cols := len(mins)
	if cols == 0 {
		return
	}
	maxs = maxs[:cols]
	for off := 0; off+cols <= len(rows); off += cols {
		for j, v := range rows[off : off+cols] {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
}
