package linalg

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestBinRowsAtPageEnd puts the rows, lo, iw and dst each flush against an
// unmapped page: a kernel that loads or stores one element past its
// operands faults instead of reading a neighbour's bytes unnoticed.
func TestBinRowsAtPageEnd(t *testing.T) {
	page := syscall.Getpagesize()
	// atPageEnd returns n elements of size bytes ending where a PROT_NONE
	// page begins.
	atPageEnd := func(n, size int) unsafe.Pointer {
		mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Skip("mmap:", err)
		}
		t.Cleanup(func() { syscall.Munmap(mem) })
		if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
			t.Skip("mprotect:", err)
		}
		return unsafe.Pointer(&mem[page-n*size])
	}
	for cols := 1; cols <= 40; cols++ {
		const rows = 3
		x := unsafe.Slice((*float64)(atPageEnd(rows*cols, 8)), rows*cols)
		lo := unsafe.Slice((*float64)(atPageEnd(cols, 8)), cols)
		iw := unsafe.Slice((*float64)(atPageEnd(cols, 8)), cols)
		want := make([]uint16, rows*cols)
		for i := range x {
			x[i] = float64(i % 37)
		}
		for j := range lo {
			lo[j], iw[j] = -1, 0.25
		}
		binRowsGeneric(want, x, cols, lo, iw, 16)
		for _, k := range kernels() {
			dst := unsafe.Slice((*uint16)(atPageEnd(rows*cols, 2)), rows*cols)
			binRows(k, dst, x, cols, lo, iw, 16)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("%v, %d cols: bin %d is %d, want %d", k, cols, i, dst[i], want[i])
				}
			}
		}
	}
}
