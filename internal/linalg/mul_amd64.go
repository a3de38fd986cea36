package linalg

// useAVX2 selects the assembly kernel behind mulRange. It is set once, here,
// from CPUID/XGETBV: AVX2 present and the OS saving YMM state.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
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

// mulRange computes rows [lo,hi) of dst = a×b: the AVX2 kernel where the CPU
// has it and the shape fills a vector, mulRangeGeneric otherwise. Both
// produce the same bits for finite b (see the kernel's header).
func mulRange(dst, a, b *Matrix, lo, hi int) {
	n, c := a.Cols, b.Cols
	if !useAVX2 || n < 2 || c < 4 || lo >= hi {
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
