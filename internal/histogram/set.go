package histogram

import (
	"fmt"
	"math"

	"keybin2/internal/wire"
)

// Set is the per-dimension collection of histograms a rank maintains for
// one projected subspace: Dims[j] bins feature j. All histograms in a set
// share the same depth; ranges differ per dimension.
type Set struct {
	Dims []*Hist
}

// NewSet builds a set for len(mins) dimensions with the given global
// per-dimension ranges and a common depth. It refuses a range DecodeSet
// would refuse (checkBinRange), so every set it builds encodes to bytes
// that decode.
func NewSet(mins, maxs []float64, depth int) (*Set, error) {
	if len(mins) != len(maxs) {
		return nil, fmt.Errorf("histogram: %d mins vs %d maxs", len(mins), len(maxs))
	}
	s := &Set{Dims: make([]*Hist, len(mins))}
	for j := range mins {
		s.Dims[j] = New(mins[j], maxs[j], depth)
		if err := checkBinRange(j, s.Dims[j]); err != nil {
			return nil, err
		}
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
	w := wire.Writer{Buf: make([]byte, 0, 8+len(s.Dims)*(24+8*nbins))}
	w.U32(uint32(len(s.Dims)))
	w.U32(uint32(depth))
	for _, h := range s.Dims {
		w.F64(h.Min)
		w.F64(h.Max)
		w.U64(h.Total)
		w.U64s(h.Counts)
	}
	return w.Buf
}

// CheckRange refuses a range no histogram can bin over: a bound that is
// NaN or infinite, hi below lo, or a width hi − lo past the largest
// float64. A zero-width range passes: New widens it.
func CheckRange(lo, hi float64) error {
	switch {
	case math.IsNaN(lo) || math.IsInf(lo, 0):
		return fmt.Errorf("histogram: range bound %v is not finite", lo)
	case math.IsNaN(hi) || math.IsInf(hi, 0):
		return fmt.Errorf("histogram: range bound %v is not finite", hi)
	case hi < lo:
		return fmt.Errorf("histogram: range [%v, %v] is reversed", lo, hi)
	case math.IsInf(hi-lo, 0):
		return fmt.Errorf("histogram: range [%v, %v] is wider than the largest float64", lo, hi)
	}
	return nil
}

// checkBinRange is the one rule a set's ranges keep, in NewSet and in
// DecodeSet: dimension j's range passes CheckRange and holds more than a
// point, as New's widened ranges do. A range that is empty, inverted, NaN
// or infinite bins nothing and merges with nothing, not even itself.
func checkBinRange(j int, h *Hist) error {
	if err := CheckRange(h.Min, h.Max); err != nil {
		return fmt.Errorf("dim %d: %w", j, err)
	}
	if h.Min == h.Max {
		return fmt.Errorf("histogram: dim %d range [%v, %v] holds one point", j, h.Min, h.Max)
	}
	return nil
}

// DecodeSet parses a payload produced by Encode: at least one dimension
// (a set of none encodes no depth), every range passing checkBinRange.
func DecodeSet(b []byte) (*Set, error) {
	r := wire.NewReader("histogram: set", b)
	nd, depth := r.U32(), int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("histogram: decoded depth %d out of range", depth)
	}
	if nd == 0 {
		return nil, fmt.Errorf("histogram: set without dimensions")
	}
	nbins := 1 << uint(depth)
	s := &Set{Dims: make([]*Hist, r.Count(nd, 24+8*nbins))}
	for j := range s.Dims {
		h := &Hist{Min: r.F64(), Max: r.F64(), Total: r.U64(), Depth: depth, Counts: make([]uint64, nbins)}
		if err := checkBinRange(j, h); err != nil {
			return nil, err
		}
		h.invW = float64(nbins) / (h.Max - h.Min)
		r.U64s(h.Counts)
		s.Dims[j] = h
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}
