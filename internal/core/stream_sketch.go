package core

import (
	"math"
	"math/bits"
	"slices"
)

// A stream trial's sketch is a flatTable of coarse key masses — the
// structure the ingest hot loop hits once per point per trial. The stream
// only ever stores keys at sketch granularity (components <
// 2^sketchBitsPerDim, see Stream.sketchShift), so a cell's key is
// sketchLayout's 5 bits per dimension: one word up to 12 dimensions, two
// up to 25, and so on. Adding mass to an existing cell is one probe with no
// allocation, at every width.

// sketchBitsPerDim is the sketch key's per-dimension width. Sketch
// components are always < 32: the stream shifts full-resolution bins down
// to at most maxSketchDepth (5) bits before they reach the sketch.
const sketchBitsPerDim = 5

// cellComponents writes a sketch cell's components into comps: shifted out
// of a register for a one-word key, as sketchBlock shifts them in.
func cellComponents(comps []uint16, cell []uint64, layout keyLayout) {
	if len(cell) > 1 {
		for j := range comps {
			comps[j] = uint16(layout.field(cell, j))
		}
		return
	}
	lo := cell[0]
	for j := len(comps) - 1; j >= 0; j-- {
		comps[j] = uint16(lo & (1<<sketchBitsPerDim - 1))
		lo >>= sketchBitsPerDim
	}
}

// sketchLayout is the layout of a sketch cell's key over width dimensions.
// The 'S' form (and a checkpoint record) is a u32 per component.
func sketchLayout(width int) keyLayout {
	widths := make([]uint, width)
	for j := range widths {
		widths[j] = sketchBitsPerDim
	}
	return newKeyLayout(widths, 4)
}

// roundMass turns a float mass into the integer count a model is built
// from and the fold ships. Masses are summed in float first and rounded
// once: after decay they are fractional, and rounding each before summing
// would zero the sketch.
func roundMass(n float64) uint64 { return uint64(math.Round(n)) }

// sketchFromCounts is the inverse of Stream.fold's rounded sketch for
// masses that arrived from elsewhere (nil: none), which fitsTrial has
// checked against the stream's layout. Cells go in ascending key order,
// so a sketch built from the same counts walks (and encodes) in the same
// order.
func sketchFromCounts(words int, tc *flatTable) *flatTable {
	sk := &flatTable{words: words}
	if tc != nil {
		for _, c := range tc.sorted() {
			sk.add(tc.key(c), tc.mass(c))
		}
	}
	return sk
}

// flatTable is internal/core's one key → mass accumulator, for keys of
// words uint64 words: a sketch's cells, whose masses turn fractional under
// decay, every tuple count, whose masses are whole numbers below 2^53 and
// so sum exactly in float64, and a model's cluster tuples. Its cells are
// stored densely in insertion order in one slab of words+1 words each —
// the key, then the mass's float64 bits, so a probe that finds the key has
// the mass in the same cache line — and a walk over them is a sequential
// scan whose order — which fixes the checkpoint's bytes and the order
// float masses are summed in — follows the input, not a hash seed. An
// open-addressing index finds a key's cell: linear probing over a
// power-of-two slot array kept at most half full, hashed by the top bits
// of a Fibonacci multiply.
type flatTable struct {
	words int      // key width W
	cells []uint64 // cell c: its key at [c·(W+1), c·(W+1)+W), its mass's bits after
	index []uint32 // per slot: 1 + the cell's position, 0 when empty
	shift uint     // 64 − log₂ len(index)
}

const fibonacciHash = 0x9E3779B97F4A7C15

// len is the number of cells.
func (t *flatTable) len() int { return len(t.cells) / (t.words + 1) }

// key is cell c's key, aliasing the table.
func (t *flatTable) key(c int) []uint64 {
	at := c * (t.words + 1)
	return t.cells[at : at+t.words : at+t.words]
}

// mass is cell c's mass.
func (t *flatTable) mass(c int) float64 {
	return math.Float64frombits(t.cells[(c+1)*(t.words+1)-1])
}

// slot is key's first probe.
func (t *flatTable) slot(key []uint64) int {
	h := key[0]
	for _, w := range key[1:] {
		h = h*fibonacciHash ^ w
	}
	return int(h * fibonacciHash >> t.shift)
}

// add adds n to key's mass, appending a cell for a key not yet present,
// and returns the key's cell.
func (t *flatTable) add(key []uint64, n float64) int {
	stride := t.words + 1
	if 2*len(t.cells) >= len(t.index)*stride { // more than half the slots hold a cell
		t.grow()
	}
	mask := len(t.index) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		at := int(t.index[i])
		if at == 0 {
			t.cells = append(append(t.cells, key...), math.Float64bits(n))
			c := len(t.cells) / stride
			t.index[i] = uint32(c)
			return c - 1
		}
		if cell := t.cells[(at-1)*stride : at*stride]; cell[0] == key[0] && slices.Equal(cell[1:stride-1], key[1:]) {
			cell[stride-1] = math.Float64bits(math.Float64frombits(cell[stride-1]) + n)
			return at - 1
		}
	}
}

// add1 is add for a one-word key, the width every benchmarked fit and
// stream runs, on their hot loops: the key stays in a register, and the
// slot and cell are the ones add would use.
func (t *flatTable) add1(key uint64, n float64) int {
	if len(t.cells) >= len(t.index) { // more than half the slots hold a cell
		t.grow()
	}
	mask := len(t.index) - 1
	for i := int(key * fibonacciHash >> t.shift); ; i = (i + 1) & mask {
		at := int(t.index[i])
		if at == 0 {
			t.cells = append(t.cells, key, math.Float64bits(n))
			t.index[i] = uint32(len(t.cells) / 2)
			return len(t.cells)/2 - 1
		}
		if cell := t.cells[2*at-2 : 2*at]; cell[0] == key {
			cell[1] = math.Float64bits(math.Float64frombits(cell[1]) + n)
			return at - 1
		}
	}
}

// find returns key's cell, if it has one.
func (t *flatTable) find(key []uint64) (int, bool) {
	if len(t.index) == 0 {
		return 0, false
	}
	mask := len(t.index) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		at := int(t.index[i])
		if at == 0 {
			return 0, false
		}
		if slices.Equal(t.key(at-1), key) {
			return at - 1, true
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
	for c := range t.len() {
		i := t.slot(t.key(c))
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(c + 1)
	}
}

// reset empties the table for keys of words words, keeping its memory.
func (t *flatTable) reset(words int) {
	t.words, t.cells = words, t.cells[:0]
	clear(t.index)
}

// filter maps every mass through f and keeps the cells f keeps, in
// insertion order: decay, rounding, the suppression filter and the fold's
// subtraction are each one pass of it.
func (t *flatTable) filter(f func(mass float64) (float64, bool)) {
	n, stride, kept := t.len(), t.words+1, 0
	for c := range n {
		if m, keep := f(t.mass(c)); keep {
			copy(t.cells[kept*stride:], t.key(c))
			t.cells[(kept+1)*stride-1] = math.Float64bits(m)
			kept++
		}
	}
	t.cells = t.cells[:kept*stride]
	if kept < n {
		t.reindex()
	}
}

// decay scales every mass by factor and drops the cells that become
// negligible (under 1e-6), the sketch's counterpart of histogram decay.
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

// minus is t − prev for counts t grew from prev (nil: nothing): the keys
// that grew, by how much. Whole masses below 2^53 subtract exactly.
func (t *flatTable) minus(prev *flatTable) *flatTable {
	grown := t.clone()
	if prev != nil {
		for c := range prev.len() {
			grown.add(prev.key(c), -prev.mass(c))
		}
	}
	grown.filter(func(m float64) (float64, bool) { return m, m > 0 })
	return grown
}

// clone is a copy that shares no memory with t.
func (t *flatTable) clone() *flatTable {
	return &flatTable{words: t.words, cells: slices.Clone(t.cells), index: slices.Clone(t.index), shift: t.shift}
}

// sorted is the cells in ascending key order.
func (t *flatTable) sorted() []int {
	order := make([]int, t.len())
	for c := range order {
		order[c] = c
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(t.key(a), t.key(b)) })
	return order
}
