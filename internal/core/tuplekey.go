package core

import (
	"errors"
	"fmt"
	"math/bits"

	"keybin2/internal/histogram"
	"keybin2/internal/partition"
)

// This file implements the allocation-free labeling kernel (§3.4). The
// paper's per-point work is: bin the point in every projected dimension,
// map each bin to its primary-cluster segment, and concatenate the segments
// into a tuple key. The reference implementation built a string per point
// per pass; here the whole tuple packs into a single uint64 — with
// B ≤ 2^MaxDepth bins a dimension rarely has more than 16 segments, so
// ⌈log₂(maxSeg+1)⌉ bits per dimension fit comfortably — and the bin→segment
// map fuses Hist.Bin with Result.SegmentOf into one lookup table per
// dimension. The string codec (packSegments) survives only as the
// documented fallback for tuples whose packed width overflows 64 bits, and
// in the Model wire format, which stores segments explicitly and therefore
// never changed.

// tupleCodec describes how one trial's segment tuples pack into a uint64.
// Dimension 0 occupies the most significant bits, so ascending uint64 order
// equals lexicographic ascending order on (seg₀, seg₁, …) — the same
// deterministic tie-break order buildLabels used with string keys.
type tupleCodec struct {
	bits   []uint // field width of dimension j (0 for collapsed/1-segment dims)
	shifts []uint // left-shift of dimension j's field
	fits   bool   // false when Σ bits > 64: callers use the string fallback
}

// newTupleCodec derives the packing from a trial's partitions. Collapsed
// dimensions contribute zero bits (their segment is constant 0), matching
// packSegments' constant contribution.
func newTupleCodec(parts []partition.Result, collapsed []bool) tupleCodec {
	n := len(parts)
	c := tupleCodec{bits: make([]uint, n), shifts: make([]uint, n)}
	total := uint(0)
	for j := range parts {
		if collapsed[j] {
			continue // 0 bits
		}
		b := uint(bits.Len(uint(parts[j].Segments() - 1)))
		c.bits[j] = b
		total += b
	}
	if total > 64 {
		return tupleCodec{} // fits=false: fall back to string keys
	}
	off := total
	for j := range c.bits {
		off -= c.bits[j]
		c.shifts[j] = off
	}
	c.fits = true
	return c
}

// pack packs a segment tuple. Only valid when fits.
func (c tupleCodec) pack(segs []int) uint64 {
	var key uint64
	for j, s := range segs {
		key |= uint64(s) << c.shifts[j]
	}
	return key
}

// unpack expands a packed key into segs (len(segs) == len(c.bits)).
func (c tupleCodec) unpack(key uint64, segs []int) {
	for j := range segs {
		segs[j] = int((key >> c.shifts[j]) & (1<<c.bits[j] - 1))
	}
}

// labeler is the fused per-point labeling kernel for one trial: per
// dimension, Hist.Bin's arithmetic on its Min and InvWidth, and
// luts[j][bin] holds the dimension's segment already shifted into its key
// field, replacing Result.SegmentOf's binary search. key() does no
// allocation and no branching beyond range clamps.
type labeler struct {
	codec tupleCodec
	mins  []float64
	invW  []float64
	nbins []float64 // float so the high clamp is one compare
	luts  [][]uint64
}

func newLabeler(set *histogram.Set, parts []partition.Result, collapsed []bool, codec tupleCodec) *labeler {
	n := len(set.Dims)
	l := &labeler{
		codec: codec,
		mins:  make([]float64, n),
		invW:  make([]float64, n),
		nbins: make([]float64, n),
		luts:  make([][]uint64, n),
	}
	for j, h := range set.Dims {
		l.mins[j] = h.Min
		l.invW[j] = h.InvWidth()
		l.nbins[j] = float64(h.Bins())
		lut := make([]uint64, h.Bins())
		if !collapsed[j] {
			for b := range lut {
				lut[b] = uint64(parts[j].SegmentOf(b)) << codec.shifts[j]
			}
		}
		l.luts[j] = lut
	}
	return l
}

// key maps a projected point to its packed tuple key. Out-of-range values
// clamp into the edge bins and NaN lands in bin 0, matching Hist.Bin.
func (l *labeler) key(x []float64) uint64 {
	var key uint64
	for j, lut := range l.luts {
		v := (x[j] - l.mins[j]) * l.invW[j]
		b := 0
		if v >= l.nbins[j] {
			b = len(lut) - 1
		} else if v >= 0 {
			b = int(v)
		}
		key |= lut[b]
	}
	return key
}

// binKey is key for a point binAll has already binned: the OR of its
// dimensions' LUT entries at the stored bins.
func (l *labeler) binKey(bins []uint16) uint64 {
	var key uint64
	for j, lut := range l.luts {
		key |= lut[bins[j]]
	}
	return key
}

// tupleCounts holds one trial's key→mass occupancy: packed uint64 keys in
// a count table (a flatTable of whole masses) on the fast path, string keys
// when the keying does not fit 64 bits. It is the only key→mass value that
// crosses a process boundary (fold.go has its wire form).
type tupleCounts struct {
	u *flatTable
	s map[string]uint64
}

// dropBelow removes tuples with mass under k (the SuppressBelow filter).
func (tc tupleCounts) dropBelow(k uint64) {
	if tc.u != nil {
		tc.u.filter(func(m float64) (float64, bool) { return m, m >= float64(k) })
	}
	for key, n := range tc.s {
		if n < k {
			delete(tc.s, key)
		}
	}
}

// minus is tc − prev for counts tc grew from prev: the keys that grew, by
// how much. Whole masses below 2^53 subtract exactly.
func (tc tupleCounts) minus(prev tupleCounts) tupleCounts {
	if tc.u == nil {
		out := make(map[string]uint64)
		for k, n := range tc.s {
			if n > prev.s[k] {
				out[k] = n - prev.s[k]
			}
		}
		return tupleCounts{s: out}
	}
	grown := tc.u.clone()
	for _, c := range prev.u.cells {
		grown.add(c.key, -c.mass)
	}
	grown.filter(func(m float64) (float64, bool) { return m, m > 0 })
	return tupleCounts{u: grown}
}

// exactMassLimit bounds every key mass a fold carries: whole counts below
// 2^53 are exact in a count table's float64 and are all the decoder takes.
const exactMassLimit = 1 << 53

// errMassPastExact refuses a sum that would carry a key mass of 2^53 or
// more, which no decoder accepts and no count table holds exactly.
var errMassPastExact = errors.New("core: merged tuple mass reaches 2^53")

// mergeTupleCounts sums in into acc (matching key codecs required). Both
// sides' masses are below exactMassLimit, so each float64 sum rounds to at
// least the limit exactly when the true sum reaches it.
func mergeTupleCounts(acc, in tupleCounts) (tupleCounts, error) {
	if (acc.u != nil) != (in.u != nil) {
		return tupleCounts{}, fmt.Errorf("core: merging packed and string tuple maps")
	}
	if acc.u != nil {
		for _, c := range in.u.cells {
			acc.u.add(c.key, c.mass)
		}
		for _, c := range acc.u.cells {
			if c.mass >= exactMassLimit {
				return acc, errMassPastExact
			}
		}
		return acc, nil
	}
	if acc.s == nil {
		acc.s = make(map[string]uint64, len(in.s))
	}
	for k, n := range in.s {
		if acc.s[k] += n; acc.s[k] >= exactMassLimit {
			return acc, errMassPastExact
		}
	}
	return acc, nil
}
