package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"keybin2/internal/keys"
)

// trialSketch is one trial's coarse key-mass accumulator — the structure
// the ingest hot loop hits once per point per trial. The stream only ever
// stores keys at sketch granularity (components < 2^sketchBitsPerDim, see
// Stream.sketchShift), so for widths up to 12 dimensions a whole key packs
// into one uint64 and the accumulator is a flatTable: adding mass to an
// existing cell is one probe with no allocation, versus the string-keyed
// keys.Counter whose every Add materializes a fresh packed string. Wider
// keys (or out-of-range components fed by a foreign checkpoint) fall back
// to a keys.Counter transparently.
type trialSketch struct {
	width  int
	packed *flatTable    // fast path; nil in fallback mode
	ctr    *keys.Counter // fallback; nil while packed is live
}

// sketchBitsPerDim is the packed encoding's per-dimension width. Sketch
// components are always < 32: the stream shifts full-resolution bins down
// to at most maxSketchDepth (5) bits before they reach the sketch.
const sketchBitsPerDim = 5

const sketchComponentMax = 1 << sketchBitsPerDim

func newTrialSketch(width int) *trialSketch {
	s := &trialSketch{width: width}
	if width*sketchBitsPerDim <= 64 {
		s.packed = &flatTable{}
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
		s.packed.add(packKey(k), n)
		return
	}
	s.ctr.Add(k, n)
}

// demote migrates the packed cells into a keys.Counter fallback.
func (s *trialSketch) demote() {
	s.ctr = keys.NewCounter(s.width)
	k := make(keys.Key, s.width)
	for _, c := range s.packed.cells {
		s.unpackInto(k, c.key)
		s.ctr.Add(k, c.mass)
	}
	s.packed = nil
}

func (s *trialSketch) len() int {
	if s.packed != nil {
		return len(s.packed.cells)
	}
	return s.ctr.Len()
}

// each visits every (key, mass) pair: in insertion order while the sketch
// packs, in unspecified order in fallback mode. The key slice is reused
// between calls — callers must not retain it.
func (s *trialSketch) each(fn func(k keys.Key, n float64)) {
	if s.packed != nil {
		k := make(keys.Key, s.width)
		for _, c := range s.packed.cells {
			s.unpackInto(k, c.key)
			fn(k, c.mass)
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
	s.packed.decay(max(factor, 0))
}

// counts is the sketch as the consolidation fold ships it: integer masses
// keyed by the packed cell when the sketch packs, by Key.Pack() otherwise.
func (s *trialSketch) counts() tupleCounts {
	if s.packed != nil {
		return tupleCounts{u: s.packed.rounded()}
	}
	m := make(map[string]uint64, s.ctr.Len())
	s.ctr.Each(func(k keys.Key, n float64) {
		if r := roundMass(n); r > 0 {
			m[k.Pack()] = r
		}
	})
	return tupleCounts{s: m}
}

// roundMass turns a float mass into the integer count a model is built
// from and the fold ships. Masses are summed in float first and rounded
// once: after decay they are fractional, and rounding each before summing
// would zero the sketch.
func roundMass(n float64) uint64 { return uint64(math.Round(n)) }

// sketchFromCounts is the inverse of counts for masses that arrived from
// elsewhere. Every component must address one of the stream's bins coarse
// sketch cells per dimension: Refit indexes a bins-wide table with it.
// Packed cells are inserted in ascending key order, so a sketch built from
// the same counts walks (and encodes) in the same order every time.
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
		pks := make([]uint64, 0, len(tc.u))
		for pk := range tc.u {
			pks = append(pks, pk)
		}
		slices.Sort(pks)
		k := make(keys.Key, width)
		for _, pk := range pks {
			if pk>>uint(width*sketchBitsPerDim) != 0 {
				return nil, fmt.Errorf("core: packed sketch key %#x wider than %d dimensions", pk, width)
			}
			sk.unpackInto(k, pk)
			if err := add(k, tc.u[pk]); err != nil {
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

// flatTable is the stream's uint64 → float64 accumulator: a packed
// sketch's cells, and the tuple masses a refit sums them into. Its cells
// (key and mass) are stored densely in insertion order, so a walk over
// them is a sequential scan, and its order — which fixes the checkpoint's
// bytes and the order float masses are summed in — follows the input, not
// a hash seed. An open-addressing index finds a key's cell: linear probing
// over a power-of-two slot array kept at most half full, hashed by the top
// bits of a Fibonacci multiply.
type flatTable struct {
	cells []flatCell
	index []uint32 // per slot: 1 + the cell's position, 0 when empty
	shift uint     // 64 − log₂ len(index)
}

type flatCell struct {
	key  uint64
	mass float64
}

const fibonacciHash = 0x9E3779B97F4A7C15

// add adds n to key's mass, appending a cell for a key not yet present.
func (t *flatTable) add(key uint64, n float64) {
	if 2*len(t.cells) >= len(t.index) {
		t.grow()
	}
	mask := len(t.index) - 1
	for i := int(key * fibonacciHash >> t.shift); ; i = (i + 1) & mask {
		at := t.index[i]
		if at == 0 {
			t.cells = append(t.cells, flatCell{key: key, mass: n})
			t.index[i] = uint32(len(t.cells))
			return
		}
		if c := &t.cells[at-1]; c.key == key {
			c.mass += n
			return
		}
	}
}

// grow doubles the index (16 slots at first) and re-indexes every cell.
func (t *flatTable) grow() {
	size := max(16, 2*len(t.index))
	t.index = make([]uint32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.reindex()
}

// reindex rebuilds the index from the cells.
func (t *flatTable) reindex() {
	clear(t.index)
	mask := len(t.index) - 1
	for c, cell := range t.cells {
		i := int(cell.key * fibonacciHash >> t.shift)
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(c + 1)
	}
}

// reset empties the table, keeping its memory.
func (t *flatTable) reset() {
	t.cells = t.cells[:0]
	clear(t.index)
}

// decay scales every mass by factor and drops the cells that become
// negligible, keeping the survivors in insertion order — keys.Counter.Decay
// on the flat layout.
func (t *flatTable) decay(factor float64) {
	const negligible = 1e-6
	kept := t.cells[:0]
	for _, c := range t.cells {
		c.mass *= factor
		if !(c.mass < negligible) {
			kept = append(kept, c)
		}
	}
	dropped := len(kept) < len(t.cells)
	t.cells = kept
	if dropped {
		t.reindex()
	}
}

// rounded is the table as integer counts (see roundMass), leaving out the
// keys whose mass rounds to nothing.
func (t *flatTable) rounded() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(t.cells))
	for _, c := range t.cells {
		if r := roundMass(c.mass); r > 0 {
			out[c.key] = r
		}
	}
	return out
}
