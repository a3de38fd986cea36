//go:build !amd64

package linalg

const best = portable

// mulRangeWith computes rows [lo,hi) of dst = a×b.
func mulRangeWith(_ kernel, dst, a, b *Matrix, lo, hi int) { mulRangeGeneric(dst, a, b, lo, hi) }

// mulRowsAVX512 is never called off amd64: best is portable.
func mulRowsAVX512(dst, a, b *float64, rows, n, c int, mins, maxs *float64) {
	panic("linalg: no AVX-512 kernel on this architecture")
}

// binRowsAVX512 is never called off amd64: best is portable.
func binRowsAVX512(dst *uint16, rows *float64, n, cols int, lo, iw *float64, top float64) {
	panic("linalg: no AVX-512 kernel on this architecture")
}
