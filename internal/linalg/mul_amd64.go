package linalg

// best is the projection kernel behind Mul and MulPacked. It is set once,
// here, from CPUID/XGETBV.
var best = detectKernel()

// detectKernel reports the best kernel the CPU and OS run: avx512 needs
// AVX-512F and the OS saving opmask and ZMM state, avx2 needs AVX2 and the
// OS saving YMM state.
func detectKernel() kernel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return portable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return portable
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	return pickKernel(xcr0, ebx)
}

// pickKernel chooses from XCR0 (which register state the OS saves) and
// CPUID.(7,0):EBX (which instructions the CPU has).
func pickKernel(xcr0, ebx7 uint32) kernel {
	const (
		xmmYMM      = 1<<1 | 1<<2        // SSE and AVX state
		opmaskZMM   = 1<<5 | 1<<6 | 1<<7 // k0–k7, ZMM0–15 upper halves, ZMM16–31
		hasAVX2     = 1 << 5             // CPUID.(7,0):EBX
		hasAVX512F  = 1 << 16            // CPUID.(7,0):EBX
		avx512State = xmmYMM | opmaskZMM // 0xE6
	)
	switch {
	case xcr0&xmmYMM != xmmYMM || ebx7&hasAVX2 == 0:
		return portable
	case xcr0&avx512State == avx512State && ebx7&hasAVX512F != 0:
		return avx512
	}
	return avx2
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// mulRowsAVX2 computes the k-pair part of rows×c dst = (rows×n a)·(n×c b):
// dst[i][j] = Σ over pairs k=0,2,…,n-2|n-3 of (a[i][k]·b[k][j] + a[i][k+1]·b[k+1][j]),
// accumulated in that order from +0. It needs n ≥ 2, c ≥ 4, rows ≥ 1 and
// leaves an odd last k to the caller.
//
//go:noescape
func mulRowsAVX2(dst, a, b *float64, rows, n, c int)

// mulRowsAVX512 computes rows×c dst = (rows×n a)·(n×c b) from b's packed
// panels: per lane the k pairs as mulRowsAVX2 does, then an odd last k as
// acc += a·b. When mins is not nil it widens mins[0:c] and maxs[0:c] over
// the rows it stores, as WidenRanges does. It needs rows, n, c ≥ 1 and
// writes no float of dst, mins or maxs past column c.
//
//go:noescape
func mulRowsAVX512(dst, a, b *float64, rows, n, c int, mins, maxs *float64)

// binRowsAVX512 bins n rows of cols values from rows into dst as
// binRowsGeneric does, with top = nbins−1. It needs n, cols ≥ 1 and writes
// no uint16 of dst past n·cols.
//
//go:noescape
func binRowsAVX512(dst *uint16, rows *float64, n, cols int, lo, iw *float64, top float64)

// mulRangeWith computes rows [lo,hi) of dst = a×b: the AVX2 kernel when k
// allows it and the shape fills a vector, mulRangeGeneric otherwise. Both
// produce the same bits for finite b (see the kernel's header).
func mulRangeWith(k kernel, dst, a, b *Matrix, lo, hi int) {
	n, c := a.Cols, b.Cols
	if k < avx2 || n < 2 || c < 4 || lo >= hi {
		mulRangeGeneric(dst, a, b, lo, hi)
		return
	}
	mulRowsAVX2(&dst.Data[lo*c], &a.Data[lo*n], &b.Data[0], hi-lo, n, c)
	if n%2 == 0 {
		return
	}
	bk := b.Data[(n-1)*c : n*c]
	for i := lo; i < hi; i++ {
		aik := a.Data[i*n+n-1]
		if aik == 0 {
			continue
		}
		di := dst.Data[i*c : (i+1)*c]
		for j, bv := range bk {
			di[j] += aik * bv
		}
	}
}
