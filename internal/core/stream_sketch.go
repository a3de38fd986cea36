package core

import (
	"fmt"
	"math"

	"keybin2/internal/keys"
)

// trialSketch is one trial's coarse key-mass accumulator — the structure
// the ingest hot loop hits once per point per trial. The stream only ever
// stores keys at sketch granularity (components < 2^sketchBitsPerDim, see
// Stream.sketchShift), so for widths up to 12 dimensions a whole key packs
// into one uint64 and the accumulator is a map[uint64]float64: adding mass
// to an existing cell is a single mapassign_fast64 with no allocation,
// versus the string-keyed keys.Counter whose every Add materializes a
// fresh packed string. Wider keys (or out-of-range components fed by a
// foreign checkpoint) fall back to a keys.Counter transparently.
type trialSketch struct {
	width  int
	packed map[uint64]float64 // fast path; nil when in fallback mode
	ctr    *keys.Counter      // fallback; nil while packed is live
}

// sketchBitsPerDim is the packed encoding's per-dimension width. Sketch
// components are always < 32: the stream shifts full-resolution bins down
// to at most maxSketchDepth (5) bits before they reach the sketch.
const sketchBitsPerDim = 5

const sketchComponentMax = 1 << sketchBitsPerDim

func newTrialSketch(width int) *trialSketch {
	s := &trialSketch{width: width}
	if width*sketchBitsPerDim <= 64 {
		s.packed = make(map[uint64]float64)
	} else {
		s.ctr = keys.NewCounter(width)
	}
	return s
}

// packKey packs coarse components (each < sketchComponentMax) into one
// uint64, most-significant dimension first.
func packKey(k keys.Key) uint64 {
	var pk uint64
	for _, b := range k {
		pk = pk<<sketchBitsPerDim | uint64(b)
	}
	return pk
}

func (s *trialSketch) unpackInto(k keys.Key, pk uint64) {
	for j := s.width - 1; j >= 0; j-- {
		k[j] = uint32(pk & (sketchComponentMax - 1))
		pk >>= sketchBitsPerDim
	}
}

// addPacked is the hot-loop entry: one map assignment, no allocation for
// an existing cell. Only valid in packed mode.
func (s *trialSketch) addPacked(pk uint64, n float64) { s.packed[pk] += n }

// add accepts an arbitrary coarse key. A component outside the packed
// range (possible only via a checkpoint written by a different binning
// configuration) demotes the sketch to the string-keyed fallback rather
// than corrupting the packing.
func (s *trialSketch) add(k keys.Key, n float64) {
	if s.packed != nil {
		for _, b := range k {
			if b >= sketchComponentMax {
				s.demote()
				s.ctr.Add(k, n)
				return
			}
		}
		s.packed[packKey(k)] += n
		return
	}
	s.ctr.Add(k, n)
}

// demote migrates the packed cells into a keys.Counter fallback.
func (s *trialSketch) demote() {
	s.ctr = keys.NewCounter(s.width)
	k := make(keys.Key, s.width)
	for pk, n := range s.packed {
		s.unpackInto(k, pk)
		s.ctr.Add(k, n)
	}
	s.packed = nil
}

func (s *trialSketch) len() int {
	if s.packed != nil {
		return len(s.packed)
	}
	return s.ctr.Len()
}

// each visits every (key, mass) pair in unspecified order. The key slice
// is reused between calls — callers must not retain it.
func (s *trialSketch) each(fn func(k keys.Key, n float64)) {
	if s.packed != nil {
		k := make(keys.Key, s.width)
		for pk, n := range s.packed {
			s.unpackInto(k, pk)
			fn(k, n)
		}
		return
	}
	s.ctr.Each(fn)
}

// decay mirrors keys.Counter.Decay: scale every mass by factor, dropping
// cells that become negligible.
func (s *trialSketch) decay(factor float64) {
	if s.packed == nil {
		s.ctr.Decay(factor)
		return
	}
	if factor >= 1 {
		return
	}
	if factor < 0 {
		factor = 0
	}
	const negligible = 1e-6
	for pk, n := range s.packed {
		nn := n * factor
		if nn < negligible {
			delete(s.packed, pk)
		} else {
			s.packed[pk] = nn
		}
	}
}

// roundMasses turns float masses into the integer counts a model is built
// from and the fold ships, leaving out what rounds to nothing. Masses are
// summed in float first and rounded once: after decay they are fractional,
// and rounding each before summing would zero the sketch.
func roundMasses[K comparable](m map[K]float64) map[K]uint64 {
	out := make(map[K]uint64, len(m))
	for k, n := range m {
		if r := uint64(math.Round(n)); r > 0 {
			out[k] = r
		}
	}
	return out
}

// counts is the sketch as the consolidation fold ships it: integer masses
// keyed by the packed cell when the sketch packs, by Key.Pack() otherwise.
func (s *trialSketch) counts() tupleCounts {
	if s.packed != nil {
		return tupleCounts{u: roundMasses(s.packed)}
	}
	m := make(map[string]float64, s.ctr.Len())
	s.ctr.Each(func(k keys.Key, n float64) { m[k.Pack()] = n })
	return tupleCounts{s: roundMasses(m)}
}

// sketchFromCounts is the inverse of counts for masses that arrived from
// elsewhere. Every component must address one of the stream's bins coarse
// sketch cells per dimension: Refit indexes a bins-wide table with it.
func sketchFromCounts(width int, bins uint32, tc tupleCounts) (*trialSketch, error) {
	sk := newTrialSketch(width)
	add := func(k keys.Key, n uint64) error {
		for j, b := range k {
			if b >= bins {
				return fmt.Errorf("core: sketch key component %d in dimension %d, %d cells", b, j, bins)
			}
		}
		sk.add(k, float64(n))
		return nil
	}
	if tc.u != nil {
		if sk.packed == nil {
			return nil, fmt.Errorf("core: packed sketch keys for %d dimensions, which do not pack", width)
		}
		k := make(keys.Key, width)
		for pk, n := range tc.u {
			if pk>>uint(width*sketchBitsPerDim) != 0 {
				return nil, fmt.Errorf("core: packed sketch key %#x wider than %d dimensions", pk, width)
			}
			sk.unpackInto(k, pk)
			if err := add(k, n); err != nil {
				return nil, err
			}
		}
		return sk, nil
	}
	for ks, n := range tc.s {
		k, err := keys.Unpack(ks)
		if err == nil && len(k) != width {
			err = fmt.Errorf("core: sketch key width %d for %d dimensions", len(k), width)
		}
		if err == nil {
			err = add(k, n)
		}
		if err != nil {
			return nil, err
		}
	}
	return sk, nil
}
