package histogram

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Set is the per-dimension collection of histograms a rank maintains for
// one projected subspace: Dims[j] bins feature j. All histograms in a set
// share the same depth; ranges differ per dimension.
type Set struct {
	Dims []*Hist
}

// NewSet builds a set for len(mins) dimensions with the given global
// per-dimension ranges and a common depth.
func NewSet(mins, maxs []float64, depth int) (*Set, error) {
	if len(mins) != len(maxs) {
		return nil, fmt.Errorf("histogram: %d mins vs %d maxs", len(mins), len(maxs))
	}
	s := &Set{Dims: make([]*Hist, len(mins))}
	for j := range mins {
		s.Dims[j] = New(mins[j], maxs[j], depth)
	}
	return s, nil
}

// AddPoint bins one projected point: x[j] goes into dimension j.
func (s *Set) AddPoint(x []float64) {
	for j, h := range s.Dims {
		h.Add(x[j])
	}
}

// AddMatrix bins rows[lo:hi) of a row-major matrix of width len(Dims).
func (s *Set) AddMatrix(data []float64, lo, hi int) {
	nd := len(s.Dims)
	for i := lo; i < hi; i++ {
		row := data[i*nd : (i+1)*nd]
		s.AddPoint(row)
	}
}

// Merge folds other into s (congruent sets only).
func (s *Set) Merge(other *Set) error {
	if len(s.Dims) != len(other.Dims) {
		return fmt.Errorf("histogram: merge of %d-dim set with %d-dim set", len(s.Dims), len(other.Dims))
	}
	for j := range s.Dims {
		if err := s.Dims[j].Merge(other.Dims[j]); err != nil {
			return fmt.Errorf("dimension %d: %w", j, err)
		}
	}
	return nil
}

// Total returns the number of points binned (taken from dimension 0; all
// dimensions agree by construction).
func (s *Set) Total() uint64 {
	if len(s.Dims) == 0 {
		return 0
	}
	return s.Dims[0].Total
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{Dims: make([]*Hist, len(s.Dims))}
	for j, h := range s.Dims {
		out.Dims[j] = h.Clone()
	}
	return out
}

// Reset zeroes every dimension.
func (s *Set) Reset() {
	for _, h := range s.Dims {
		h.Reset()
	}
}

// Decay applies exponential forgetting to every dimension.
func (s *Set) Decay(factor float64) {
	for _, h := range s.Dims {
		h.Decay(factor)
	}
}

// Suppress zeroes bins below k observations in every dimension (see
// Hist.Suppress) and returns the total suppressed observations across
// dimensions.
func (s *Set) Suppress(k uint64) (suppressed uint64) {
	for _, h := range s.Dims {
		suppressed += h.Suppress(k)
	}
	return suppressed
}

// Wire format for a Set (little endian):
//
//	[ndims:u32][depth:u32] then per dim: [min:f64][max:f64][total:u64][counts:2^depth × u64]
//
// The encoding is self-describing so the reduction root can sanity-check
// congruence before summing.

// Encode serializes the set.
func (s *Set) Encode() []byte {
	depth := 0
	if len(s.Dims) > 0 {
		depth = s.Dims[0].Depth
	}
	nbins := 1 << uint(depth)
	buf := make([]byte, 8+len(s.Dims)*(24+8*nbins))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(s.Dims)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(depth))
	off := 8
	for _, h := range s.Dims {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(h.Min))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(h.Max))
		binary.LittleEndian.PutUint64(buf[off+16:], h.Total)
		off += 24
		for _, c := range h.Counts {
			binary.LittleEndian.PutUint64(buf[off:], c)
			off += 8
		}
	}
	return buf
}

// DecodeSet parses a payload produced by Encode.
func DecodeSet(b []byte) (*Set, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("histogram: truncated set header")
	}
	nd := int(binary.LittleEndian.Uint32(b[0:]))
	depth := int(binary.LittleEndian.Uint32(b[4:]))
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("histogram: decoded depth %d out of range", depth)
	}
	nbins := 1 << uint(depth)
	want := 8 + nd*(24+8*nbins)
	if len(b) != want {
		return nil, fmt.Errorf("histogram: payload %d bytes, want %d for %d dims at depth %d", len(b), want, nd, depth)
	}
	s := &Set{Dims: make([]*Hist, nd)}
	off := 8
	for j := 0; j < nd; j++ {
		h := &Hist{
			Min:    math.Float64frombits(binary.LittleEndian.Uint64(b[off:])),
			Max:    math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:])),
			Total:  binary.LittleEndian.Uint64(b[off+16:]),
			Depth:  depth,
			Counts: make([]uint64, nbins),
		}
		h.invW = float64(nbins) / (h.Max - h.Min)
		off += 24
		for k := 0; k < nbins; k++ {
			h.Counts[k] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
		s.Dims[j] = h
	}
	return s, nil
}
