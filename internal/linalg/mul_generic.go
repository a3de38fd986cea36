//go:build !amd64

package linalg

// mulRange computes rows [lo,hi) of dst = a×b.
func mulRange(dst, a, b *Matrix, lo, hi int) { mulRangeGeneric(dst, a, b, lo, hi) }
