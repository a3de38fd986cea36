package linalg

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"keybin2/internal/histogram"
	"keybin2/internal/xrand"
)

// binColumns returns cols histograms of 2^depth bins over random ranges,
// every fifth one of zero width (histogram.New widens it to one unit), and
// the values BinRows is run on beside each: Min and Max, every bin edge
// (a sample of them past 1024 bins) and its Nextafter neighbours, NaN,
// ±Inf, ±0, ±MaxFloat64 and far out of range on both sides.
func binColumns(rng *xrand.Stream, cols, depth int) ([]*histogram.Hist, [][]float64) {
	hs := make([]*histogram.Hist, cols)
	pools := make([][]float64, cols)
	for j := range hs {
		lo := (rng.Float64() - 0.5) * 200
		hi := lo + rng.Float64()*50
		if j%5 == 4 {
			hi = lo
		}
		h := histogram.New(lo, hi, depth)
		pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.MaxFloat64, -math.MaxFloat64, h.Min, h.Max, h.Min - 1e6, h.Max + 1e6}
		for i := 0; i < min(h.Bins()+1, 1025); i++ {
			b := i
			if h.Bins() > 1024 {
				b = rng.Intn(h.Bins() + 1)
			}
			edge := h.Min + float64(b)*h.BinWidth()
			pool = append(pool, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		hs[j], pools[j] = h, pool
	}
	return hs, pools
}

// checkBins runs kernel k on rows and holds every bin to Hist.Bin, and the
// uint16s past the end of dst to their sentinel.
func checkBins(t *testing.T, k kernel, rows []float64, hs []*histogram.Hist) {
	t.Helper()
	cols := len(hs)
	lo, iw := make([]float64, cols), make([]float64, cols)
	for j, h := range hs {
		lo[j], iw[j] = h.Min, h.InvWidth()
	}
	const sentinel = 0xBEEF
	buf := make([]uint16, len(rows)+33)
	for i := range buf {
		buf[i] = sentinel // a kernel must overwrite every bin, 0 included
	}
	binRows(k, buf[:len(rows)], rows, cols, lo, iw, hs[0].Bins())
	for i, x := range rows {
		if want := hs[i%cols].Bin(x); int(buf[i]) != want {
			t.Fatalf("%v, %d cols, %d bins: row %d col %d x=%v (%x): bin %d, Hist.Bin %d",
				k, cols, hs[0].Bins(), i/cols, i%cols, x, math.Float64bits(x), buf[i], want)
		}
	}
	for i, v := range buf[len(rows):] {
		if v != sentinel {
			t.Fatalf("%v, %d cols: uint16 %d past the end written (%#x)", k, cols, i, v)
		}
	}
}

// TestBinKernelBitIdentical holds every bin kernel this CPU runs — the
// portable loop, forced, and on AVX-512F hosts the vector kernel that
// BinRows dispatches to — to Hist.Bin, value for value: for every cols
// 1–80 (every tail length of the 16-column step, up to the paper's 5 × 16
// projected columns) at 1, 15, 16 and 17 rows, and for every depth 1–16
// (2…65536 bins) over every bin edge and its neighbours.
func TestBinKernelBitIdentical(t *testing.T) {
	t.Logf("dispatch picks %v", best)
	for depth := 1; depth <= 16; depth++ {
		t.Run(fmt.Sprintf("bins=%d", 1<<depth), func(t *testing.T) {
			rng := xrand.New(int64(depth))
			for cols := 1; cols <= 80; cols++ {
				hs, pools := binColumns(rng, cols, depth)
				for _, n := range []int{1, 15, 16, 17} {
					rows := make([]float64, n*cols)
					for i := range rows {
						j := i % cols
						rows[i] = hs[j].Min + rng.Float64()*(hs[j].Max-hs[j].Min)
						if rng.Intn(10) < 7 {
							rows[i] = pools[j][rng.Intn(len(pools[j]))]
						}
					}
					for _, k := range kernels() {
						checkBins(t, k, rows, hs)
					}
				}
			}
			// Every value of one column's pool, seven columns to a row.
			hs, pools := binColumns(rng, 1, depth)
			const cols = 7
			rows := make([]float64, (len(pools[0])+cols-1)/cols*cols)
			for i := range rows {
				rows[i] = math.NaN()
			}
			copy(rows, pools[0])
			wide := make([]*histogram.Hist, cols)
			for j := range wide {
				wide[j] = hs[0]
			}
			for _, k := range kernels() {
				checkBins(t, k, rows, wide)
			}
		})
	}
}

// TestBinRowsShapes pins BinRows' preconditions: a shape it cannot bin
// panics instead of reading or writing out of bounds.
func TestBinRowsShapes(t *testing.T) {
	lo, iw := make([]float64, 4), make([]float64, 4)
	for _, c := range []struct {
		name        string
		dst, values int
		cols, nbins int
	}{
		{"ragged rows", 10, 10, 4, 8},
		{"short dst", 7, 8, 4, 8},
		{"short ranges", 10, 10, 5, 8},
		{"too many bins", 8, 8, 4, 1<<16 + 1},
		{"no columns", 8, 8, 0, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			BinRows(make([]uint16, c.dst), make([]float64, c.values), c.cols, lo, iw, c.nbins)
		})
	}
	BinRows(nil, nil, 4, lo, iw, 1<<16) // no rows: nothing to do
}

// TestBinRowsInPlace: bins written over the first bytes of their own rows,
// as the fit writes a block's bins over the block's floats, equal bins
// written into a buffer apart, on every kernel this CPU runs, for cols
// 1–40 (whole 16-column steps and every masked tail) and row counts that
// cut into 1024-row blocks leave a short last block.
func TestBinRowsInPlace(t *testing.T) {
	const block = 1024
	rng := xrand.New(19)
	for cols := 1; cols <= 40; cols++ {
		depth := 1 + rng.Intn(16)
		hs, pools := binColumns(rng, cols, depth)
		lo, iw := make([]float64, cols), make([]float64, cols)
		for j, h := range hs {
			lo[j], iw[j] = h.Min, h.InvWidth()
		}
		for _, n := range []int{1, 17, block, 2*block + 37} {
			rows := make([]float64, n*cols)
			for i := range rows {
				j := i % cols
				rows[i] = hs[j].Min + rng.Float64()*(hs[j].Max-hs[j].Min)
				if rng.Intn(10) < 3 {
					rows[i] = pools[j][rng.Intn(len(pools[j]))]
				}
			}
			for _, k := range kernels() {
				want := make([]uint16, len(rows))
				binRows(k, want, rows, cols, lo, iw, hs[0].Bins())
				work := append([]float64(nil), rows...)
				for first := 0; first < n; first += block {
					blk := work[first*cols : min(first+block, n)*cols]
					in := unsafe.Slice((*uint16)(unsafe.Pointer(&blk[0])), len(blk))
					binRows(k, in, blk, cols, lo, iw, hs[0].Bins())
					for i, b := range in {
						if w := want[first*cols+i]; b != w {
							t.Fatalf("%v, %d cols, %d rows: block at row %d, value %d: bin %d in place, %d apart",
								k, cols, n, first, i, b, w)
						}
					}
				}
			}
		}
	}
}
