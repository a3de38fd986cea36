package core

import (
	"cmp"
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
// keys fall back to a keys.Counter.
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

// add adds n to coarse key k. Every component is below
// sketchComponentMax: applyChunk adds bin >> sketchShift, and both
// decoders check a key from elsewhere against the stream's cells
// (checkSketchKey) before it gets here.
func (s *trialSketch) add(k keys.Key, n float64) {
	if s.packed != nil {
		s.packed.add(packKey(k), n)
		return
	}
	s.ctr.Add(k, n)
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

// decay mirrors keys.Counter.Decay: scale every mass by factor, in (0, 1)
// as Refit's forgetting passes it, dropping cells that become negligible.
func (s *trialSketch) decay(factor float64) {
	if s.packed == nil {
		s.ctr.Decay(factor)
		return
	}
	s.packed.decay(factor)
}

// counts is the sketch as the consolidation fold ships it: whole masses
// keyed by the packed cell when the sketch packs, by Key.Pack() otherwise.
func (s *trialSketch) counts() tupleCounts {
	if s.packed != nil {
		tab := s.packed.clone()
		tab.round()
		return tupleCounts{u: tab}
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

// checkSketchKey refuses a coarse key from elsewhere — a merged fold, a
// checkpoint — unless every component addresses one of the stream's cells
// coarse sketch cells per dimension: Refit indexes a cells-wide table with
// it, and the packed sketch holds 5 bits per component.
func checkSketchKey(k keys.Key, cells uint32) error {
	for j, b := range k {
		if b >= cells {
			return fmt.Errorf("core: sketch key component %d in dimension %d, %d cells", b, j, cells)
		}
	}
	return nil
}

// sketchFromCounts is the inverse of counts for masses that arrived from
// elsewhere, every key checked by checkSketchKey. Packed cells are
// inserted in ascending key order, so a sketch built from the same counts
// walks (and encodes) in the same order every time.
func sketchFromCounts(width int, cells uint32, tc tupleCounts) (*trialSketch, error) {
	sk := newTrialSketch(width)
	if tc.u != nil {
		if sk.packed == nil {
			return nil, fmt.Errorf("core: packed sketch keys for %d dimensions, which do not pack", width)
		}
		k := make(keys.Key, width)
		for _, c := range tc.u.sorted() {
			if c.key>>uint(width*sketchBitsPerDim) != 0 {
				return nil, fmt.Errorf("core: packed sketch key %#x wider than %d dimensions", c.key, width)
			}
			sk.unpackInto(k, c.key)
			if err := checkSketchKey(k, cells); err != nil {
				return nil, err
			}
			sk.add(k, c.mass)
		}
		return sk, nil
	}
	for ks, n := range tc.s {
		k, err := keys.Unpack(ks)
		if err == nil && len(k) != width {
			err = fmt.Errorf("core: sketch key width %d for %d dimensions", len(k), width)
		}
		if err == nil {
			err = checkSketchKey(k, cells)
		}
		if err != nil {
			return nil, err
		}
		sk.add(k, float64(n))
	}
	return sk, nil
}

// flatTable is internal/core's one uint64 → mass accumulator: a packed
// sketch's cells, whose masses turn fractional under decay, and every
// packed tuple count (tupleCounts.u), whose masses are whole numbers below
// 2^53 and so sum exactly in float64. Its cells (key and mass) are stored
// densely in insertion order, so a walk over them is a sequential scan,
// and its order — which fixes the checkpoint's bytes and the order float
// masses are summed in — follows the input, not a hash seed. An
// open-addressing index finds a key's cell: linear probing over a
// power-of-two slot array kept at most half full, hashed by the top bits
// of a Fibonacci multiply.
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

// filter maps every mass through f and keeps the cells f keeps, in
// insertion order: decay, rounding, the suppression filter and the fold's
// subtraction are each one pass of it.
func (t *flatTable) filter(f func(mass float64) (float64, bool)) {
	kept := t.cells[:0]
	for _, c := range t.cells {
		var keep bool
		if c.mass, keep = f(c.mass); keep {
			kept = append(kept, c)
		}
	}
	dropped := len(kept) < len(t.cells)
	t.cells = kept
	if dropped {
		t.reindex()
	}
}

// decay scales every mass by factor and drops the cells that become
// negligible — keys.Counter.Decay on the flat layout.
func (t *flatTable) decay(factor float64) {
	const negligible = 1e-6
	t.filter(func(m float64) (float64, bool) {
		m *= factor
		return m, !(m < negligible)
	})
}

// round makes the table a count table: every mass rounded once to its
// whole count (roundMass), the cells that round to nothing dropped.
func (t *flatTable) round() {
	t.filter(func(m float64) (float64, bool) {
		r := float64(roundMass(m))
		return r, r > 0
	})
}

// clone is a copy that shares no memory with t.
func (t *flatTable) clone() *flatTable {
	return &flatTable{cells: slices.Clone(t.cells), index: slices.Clone(t.index), shift: t.shift}
}

// sorted is a copy of the cells in ascending key order.
func (t *flatTable) sorted() []flatCell {
	cells := slices.Clone(t.cells)
	slices.SortFunc(cells, func(a, b flatCell) int { return cmp.Compare(a.key, b.key) })
	return cells
}
