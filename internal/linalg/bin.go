package linalg

import "fmt"

// BinRows bins the row-major rows, cols values wide, into dst, value for
// value: column j goes into nbins bins from lo[j] with inverse bin width
// iw[j], by histogram.Hist.Bin's arithmetic,
//
//	v := (x − lo[j]) · iw[j]
//	nbins−1 if v ≥ nbins, ⌊v⌋ if 0 ≤ v < nbins, 0 otherwise (v < 0 or NaN)
//
// on the fastest kernel the CPU runs; every kernel writes the same bins.
// dst must hold len(rows) values, lo and iw cols each, and nbins must be in
// [1, 65536] so every bin fits a uint16. Nothing of dst past len(rows) is
// written.
func BinRows(dst []uint16, rows []float64, cols int, lo, iw []float64, nbins int) {
	if cols < 1 || len(rows)%cols != 0 || len(dst) < len(rows) || len(lo) < cols || len(iw) < cols || nbins < 1 || nbins > 1<<16 {
		panic(fmt.Sprintf("linalg: BinRows of %d values %d wide into %d with %d/%d ranges and %d bins", len(rows), cols, len(dst), len(lo), len(iw), nbins))
	}
	binRows(best, dst, rows, cols, lo, iw, nbins)
}

// binRows is BinRows on kernel k, which the CPU must run. There are two
// bin kernels: the AVX-512 one, and binRowsGeneric for every other rung.
func binRows(k kernel, dst []uint16, rows []float64, cols int, lo, iw []float64, nbins int) {
	if k == avx512 && len(rows) > 0 {
		binRowsAVX512(&dst[0], &rows[0], len(rows)/cols, cols, &lo[0], &iw[0], float64(nbins-1))
		return
	}
	binRowsGeneric(dst, rows, cols, lo, iw, nbins)
}

// binRowsGeneric is the reference bin kernel: Hist.Bin's statements, with
// the subtraction and the product rounded one after the other (there is no
// multiply-add to fuse).
func binRowsGeneric(dst []uint16, rows []float64, cols int, lo, iw []float64, nbins int) {
	top := float64(nbins)
	lo, iw = lo[:cols], iw[:cols]
	for off := 0; off+cols <= len(rows); off += cols {
		out := dst[off : off+cols]
		for j, x := range rows[off : off+cols] {
			v := (x - lo[j]) * iw[j]
			b := 0
			if v >= top {
				b = nbins - 1
			} else if v >= 0 {
				b = int(v)
			}
			out[j] = uint16(b)
		}
	}
}
