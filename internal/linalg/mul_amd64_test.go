package linalg

import "testing"

// TestPickKernel pins the dispatch ladder: no AVX-512F, or an OS that does
// not save opmask and ZMM state, falls back to the AVX2 kernel (and the
// WidenRanges pass) exactly as before the AVX-512 kernel existed.
func TestPickKernel(t *testing.T) {
	const (
		ymmOS     = 0x06
		zmmOS     = 0xE6
		cpuAVX2   = 1 << 5
		cpuAVX512 = 1<<5 | 1<<16
	)
	for _, c := range []struct {
		xcr0, ebx uint32
		want      kernel
	}{
		{ymmOS, cpuAVX2, avx2},
		{ymmOS, cpuAVX512, avx2}, // CPU has AVX-512F, OS saves no ZMM state
		{0x66, cpuAVX512, avx2},  // opmask state missing
		{zmmOS, cpuAVX2, avx2},   // no AVX-512F
		{zmmOS, cpuAVX512, avx512},
		{zmmOS | 1<<9, cpuAVX512, avx512},
		{0x02, cpuAVX512, portable}, // no YMM state
		{zmmOS, 1 << 16, portable},  // no AVX2
	} {
		if got := pickKernel(c.xcr0, c.ebx); got != c.want {
			t.Errorf("XCR0 %#x EBX %#x: %v, want %v", c.xcr0, c.ebx, got, c.want)
		}
	}
}
