// Package keys implements KeyBin's per-point hierarchical keys. A point's
// key is the concatenation of its bin labels across dimensions (the paper's
// example: bin 35 in dim 1, 64 in dim 2, 06 in dim 3 → key "356406"). The
// label in each dimension is the finest-level bin index of the point's
// binning-tree path; the bin at any coarser depth is a prefix (right shift)
// of that index.
//
// Keys are computed independently per point and per dimension from nothing
// but the point's features and the global ranges — the property that makes
// KeyBin embarrassingly parallel.
package keys

import (
	"encoding/binary"
	"fmt"
	"strings"

	"keybin2/internal/histogram"
)

// Key is a point's per-dimension finest-level bin index vector.
type Key []uint32

// Compute returns the key of point x under the binning defined by set.
// len(x) must equal the set's dimensionality.
func Compute(x []float64, set *histogram.Set) Key {
	k := make(Key, len(set.Dims))
	for j, h := range set.Dims {
		k[j] = uint32(h.Bin(x[j]))
	}
	return k
}

// ComputeInto writes the key of x into k (len(k) == dims), avoiding
// allocation in the per-point hot loop.
func ComputeInto(k Key, x []float64, set *histogram.Set) {
	for j, h := range set.Dims {
		k[j] = uint32(h.Bin(x[j]))
	}
}

// AtDepth returns the key truncated to depth d: each dimension's bin label
// is replaced by its depth-d prefix. depth is the set's finest depth.
func (k Key) AtDepth(d, depth int) Key {
	if d >= depth {
		return k
	}
	shift := uint(depth - d)
	out := make(Key, len(k))
	for j, b := range k {
		out[j] = b >> shift
	}
	return out
}

// String renders the key in the paper's concatenated form, zero-padded and
// dot-separated per dimension for readability ("035.064.006").
func (k Key) String() string {
	parts := make([]string, len(k))
	for j, b := range k {
		parts[j] = fmt.Sprintf("%03d", b)
	}
	return strings.Join(parts, ".")
}

// Pack serializes the key into a compact byte string usable as a map key.
func (k Key) Pack() string {
	buf := make([]byte, 4*len(k))
	for j, b := range k {
		binary.LittleEndian.PutUint32(buf[4*j:], b)
	}
	return string(buf)
}

// Unpack parses a Pack()ed key.
func Unpack(s string) (Key, error) {
	if len(s)%4 != 0 {
		return nil, fmt.Errorf("keys: packed length %d not a multiple of 4", len(s))
	}
	k := make(Key, len(s)/4)
	b := []byte(s)
	for j := range k {
		k[j] = binary.LittleEndian.Uint32(b[4*j:])
	}
	return k, nil
}

// Equal reports whether two keys are identical.
func (k Key) Equal(o Key) bool {
	if len(k) != len(o) {
		return false
	}
	for j := range k {
		if k[j] != o[j] {
			return false
		}
	}
	return true
}

// DefaultDepth returns the binning-tree depth for a dataset of m points:
// the finest level has B = 2^depth ≈ log₂²(m) bins, reconciling the
// paper's B = log M complexity claim (§3.4) with its w = √(log₂²M)
// smoothing window (§3.2). The result is clamped to [3, 10] so tiny and
// huge datasets stay tractable.
func DefaultDepth(m int) int {
	if m < 2 {
		return 3
	}
	l2 := 0
	for v := m; v > 1; v >>= 1 {
		l2++
	}
	target := l2 * l2 // ≈ log2²(m) bins
	depth := 0
	for v := 1; v < target; v <<= 1 {
		depth++
	}
	if depth < 3 {
		depth = 3
	}
	if depth > 10 {
		depth = 10
	}
	return depth
}
