package core

import (
	"errors"
	"fmt"
	"math/bits"

	"keybin2/internal/partition"
	"keybin2/internal/wire"
)

// This file implements the allocation-free labeling kernel (§3.4). The
// paper's per-point work is: bin the point in every projected dimension,
// map each bin to its primary-cluster segment, and concatenate the segments
// into a tuple key. The reference implementation built a string per point
// per pass; here the tuple packs into W uint64 words — ⌈log₂ S⌉ bits for a
// dimension of S segments, so a tuple of up to 64 bits (every N_rp the
// benchmarks run) takes one word — and Result.SegmentOf becomes one lookup
// table per dimension over the bins linalg.BinRows stores. The stream's
// coarse sketch cells are keys of the same kind (5 bits per dimension):
// one layout and one count table (flatTable) serve every key of every
// width, and one labeler builds every tuple key. Only the fold's 'S'
// section and the Model and checkpoint wire formats, which store segments
// or components explicitly, see a key as anything but words.

// keyLayout places one unsigned field per dimension in a key of words
// uint64 words: the fields concatenated, dimension 0 in the most
// significant bits, the whole right-aligned in the key's words·64 bits,
// word 0 the most significant. Ascending key order (word by word) is
// therefore lexicographic ascending order on (field₀, field₁, …) — the
// deterministic tie-break order buildLabels uses. A field may straddle two
// words.
type keyLayout struct {
	bits   []uint // field width of dimension j (0 for a constant field)
	shifts []uint // offset of dimension j's lowest bit from the key's lowest bit
	words  int    // ⌈Σ bits / 64⌉, at least 1; 0 for the layout of no keys
	top    uint64 // the bits of word 0 the fields occupy
	wire   int    // bytes per field in the fold's 'S' form: 2 or 4
}

// newKeyLayout lays out fields of the given widths.
func newKeyLayout(widths []uint, wire int) keyLayout {
	l := keyLayout{bits: widths, shifts: make([]uint, len(widths)), wire: wire}
	total := uint(0)
	for _, b := range widths {
		total += b
	}
	off := total
	for j, b := range widths {
		off -= b
		l.shifts[j] = off
	}
	l.words = max(1, int(total+63)/64)
	l.top = 1<<(total-64*uint(l.words-1)) - 1
	return l
}

// tupleLayout is a trial's segment-tuple layout: ⌈log₂ S⌉ bits for a
// dimension of S segments, none for a collapsed one (its segment is
// constant 0). The 'S' form is a u16 per segment.
func tupleLayout(parts []partition.Result, collapsed []bool) keyLayout {
	widths := make([]uint, len(parts))
	for j := range parts {
		if !collapsed[j] {
			widths[j] = uint(bits.Len(uint(parts[j].Segments() - 1)))
		}
	}
	return newKeyLayout(widths, 2)
}

// at is where dimension j's field sits: the word holding its lowest bit
// and the bit offset within that word.
func (l keyLayout) at(j int) (word int, shift uint) {
	return l.words - 1 - int(l.shifts[j]/64), l.shifts[j] % 64
}

// put ORs v into dimension j's field of key. A v wider than the field
// spills into the fields above it, as a shifted OR does.
func (l keyLayout) put(key []uint64, j int, v uint64) {
	if l.bits[j] == 0 {
		return
	}
	w, s := l.at(j)
	key[w] |= v << s
	if s+l.bits[j] > 64 {
		key[w-1] |= v >> (64 - s)
	}
}

// field reads dimension j's field of key.
func (l keyLayout) field(key []uint64, j int) uint64 {
	if l.bits[j] == 0 {
		return 0
	}
	w, s := l.at(j)
	v := key[w] >> s
	if s+l.bits[j] > 64 {
		v |= key[w-1] << (64 - s)
	}
	return v & (1<<l.bits[j] - 1)
}

// pack writes the key of a segment (or component) tuple into key.
func (l keyLayout) pack(key []uint64, fields []int) {
	clear(key)
	for j, v := range fields {
		l.put(key, j, uint64(v))
	}
}

// unpack expands a key into one field per dimension.
func (l keyLayout) unpack(key []uint64) []int {
	out := make([]int, len(l.bits))
	for j := range out {
		out[j] = int(l.field(key, j))
	}
	return out
}

// appendWire appends key in the fold's 'S' form: every field in dimension
// order, little endian, in l.wire bytes.
func (l keyLayout) appendWire(b []byte, key []uint64) []byte {
	w := wire.Writer{Buf: b}
	for j := range l.bits {
		if v := l.field(key, j); l.wire == 2 {
			w.U16(uint16(v))
		} else {
			w.U32(uint32(v))
		}
	}
	return w.Buf
}

// fromWire is the inverse of appendWire. It refuses a key of another
// length and a field value its width cannot hold, so every key it accepts
// re-encodes to the same bytes.
func (l keyLayout) fromWire(key []uint64, b []byte) error {
	if len(b) != l.wire*len(l.bits) {
		return fmt.Errorf("core: %d-byte key for %d fields of %d bytes", len(b), len(l.bits), l.wire)
	}
	r := wire.NewReader("core: key", b)
	clear(key)
	for j, width := range l.bits {
		var v uint64
		if l.wire == 2 {
			v = uint64(r.U16())
		} else {
			v = uint64(r.U32())
		}
		if v>>width != 0 {
			return fmt.Errorf("core: key field %d holds %d, wider than %d bits", j, v, width)
		}
		l.put(key, j, v)
	}
	return nil
}

// labeler is the fused keying kernel over stored bins under one layout:
// per dimension, a lookup table from bin to the dimension's field, already
// shifted into its word. Word w of a key is the OR of the tables luts[w]
// of the dimensions from lo[w] on; a field that straddles two words has a
// table in each. The field is a bin's segment (segmentField), replacing
// Result.SegmentOf's binary search. Every bin it keys is one
// linalg.BinRows wrote, so Hist.Bin's arithmetic has one copy, the bin
// kernel's. binKey and binKeys allocate nothing and do not branch.
type labeler struct {
	layout keyLayout
	lo     []int        // per word: its first dimension
	luts   [][][]uint64 // per word, per dimension from lo on: bin → field bits
}

// binLabeler builds the tables of layout over nbins bins per dimension,
// field(j, b) being dimension j's field for bin b.
func binLabeler(layout keyLayout, nbins int, field func(j, bin int) uint64) *labeler {
	l := &labeler{
		layout: layout,
		lo:     make([]int, layout.words),
		luts:   make([][][]uint64, layout.words),
	}
	run := func(w, j int, lut []uint64) {
		if len(l.luts[w]) == 0 {
			l.lo[w] = j
		}
		l.luts[w] = append(l.luts[w], lut)
	}
	for j, width := range layout.bits {
		// A field of no bits above every other sits past word 0.
		w, s := layout.at(j)
		w = max(w, 0)
		lo := make([]uint64, nbins)
		if width == 0 {
			run(w, j, lo)
			continue
		}
		var hi []uint64
		if s+width > 64 {
			hi = make([]uint64, nbins)
			run(w-1, j, hi)
		}
		for b := range lo {
			v := field(j, b)
			lo[b] = v << s
			if hi != nil {
				hi[b] = v >> (64 - s)
			}
		}
		run(w, j, lo)
	}
	return l
}

// segmentField is the field function of a trial's tuple labeler: a bin's
// segment, 0 in a collapsed dimension.
func segmentField(parts []partition.Result, collapsed []bool) func(j, bin int) uint64 {
	return func(j, bin int) uint64 {
		if collapsed[j] {
			return 0
		}
		return uint64(parts[j].SegmentOf(bin))
	}
}

// words is the width of the labeler's keys.
func (l *labeler) words() int { return l.layout.words }

// binKey writes the key of a point's stored bins into key (len words):
// the OR of its dimensions' table entries at the bins.
func (l *labeler) binKey(key []uint64, bins []uint16) {
	for w, luts := range l.luts {
		key[w] = orTables(luts, bins[l.lo[w]:])
	}
}

// binKeys writes the key of every row of a block of stored bins into keys,
// words apart: a row's dimensions start first bins into it, and rows are
// stride bins apart. It runs a word at a time over the whole block.
func (l *labeler) binKeys(keys []uint64, bins []uint16, first, stride int) {
	words := l.layout.words
	for w, luts := range l.luts {
		for at, off := w, first+l.lo[w]; off < len(bins); at, off = at+words, off+stride {
			keys[at] = orTables(luts, bins[off:])
		}
	}
}

// orTables is one word of one row's key: the OR of luts at the row's bins.
func orTables(luts [][]uint64, bins []uint16) (acc uint64) {
	bins = bins[:len(luts)]
	for j, lut := range luts {
		acc |= lut[bins[j]]
	}
	return acc
}

// count adds one to tab for the key of every row of a block of stored
// bins, laid out as for binKeys: a one-word key straight from its row's
// tables, a wider one through keys (room for blockRows keys) by binKeys.
func (l *labeler) count(tab *flatTable, keys []uint64, bins []uint16, first, stride int) {
	words := l.layout.words
	if words == 1 {
		for off := first + l.lo[0]; off < len(bins); off += stride {
			tab.add1(orTables(l.luts[0], bins[off:]), 1)
		}
		return
	}
	l.binKeys(keys, bins, first, stride)
	for at, n := 0, len(bins)/stride*words; at < n; at += words {
		tab.add(keys[at:at+words], 1)
	}
}

// exactMassLimit bounds every key mass a fold carries: whole counts below
// 2^53 are exact in a count table's float64 and are all the decoder takes.
const exactMassLimit = 1 << 53

// errMassPastExact refuses a sum that would carry a key mass of 2^53 or
// more, which no decoder accepts and no count table holds exactly.
var errMassPastExact = errors.New("core: merged tuple mass reaches 2^53")

// mergeCounts sums the count table in into acc, which may be nil (no keys
// yet); both sides' keys must have one width. Both sides' masses are below
// exactMassLimit, so each float64 sum rounds to at least the limit exactly
// when the true sum reaches it.
func mergeCounts(acc, in *flatTable) (*flatTable, error) {
	if in == nil {
		return acc, nil
	}
	if acc == nil {
		acc = &flatTable{words: in.words}
	}
	if acc.words != in.words {
		return acc, fmt.Errorf("core: merging keys of %d and %d words", acc.words, in.words)
	}
	for c := range in.len() {
		acc.add(in.key(c), in.mass(c))
	}
	for c := range acc.len() {
		if acc.mass(c) >= exactMassLimit {
			return acc, errMassPastExact
		}
	}
	return acc, nil
}
