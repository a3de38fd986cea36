// Package wire is the one cursor under every binary format that crosses a
// process: KB2H folds, KB2M models, KB2S checkpoints, KB2B batches, WAL
// records (on disk and in a GET /wal body), entries and checkpoint
// metadata, and the MPI transport's frames. Every value is little endian and fixed width.
//
// Reader is the only place a decoder checks bounds. Its error is sticky:
// the first read that does not fit records an error, every later read
// returns zero values, and the decoder asks once (Err, or Done at the end)
// instead of after every field. A count read off the wire is a claim, not
// an allocation request: Count refuses one the remaining bytes cannot
// hold before the caller sizes anything from it, so a decoder allocates
// at most a fixed multiple of its input. Done refuses trailing bytes, so a
// payload decodes only when every byte of it was read.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer appends fixed-width little-endian values to Buf.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v uint8)   { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16) { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *Writer) F64(v float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(v))
}

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) { w.Buf = append(w.Buf, b...) }

// Str appends the bytes of s verbatim: a magic, or a string whose length
// the caller wrote.
func (w *Writer) Str(s string) { w.Buf = append(w.Buf, s...) }

// Frame appends b behind its u32 length, the form Reader.Frame reads.
func (w *Writer) Frame(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// U64s appends every value of v, growing Buf once.
func (w *Writer) U64s(v []uint64) {
	b := w.grow(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// F64s appends every value of v, growing Buf once.
func (w *Writer) F64s(v []float64) {
	b := w.grow(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// grow extends Buf by n bytes and returns them.
func (w *Writer) grow(n int) []byte {
	off := len(w.Buf)
	w.Buf = slices.Grow(w.Buf, n)[:off+n]
	return w.Buf[off:]
}

// Reader reads a payload front to back. The zero value is not usable;
// make one with NewReader.
type Reader struct {
	what string // names the payload in errors: "core: model payload"
	buf  []byte
	off  int
	err  error
}

// NewReader reads b; what names the payload in every error it reports.
func NewReader(what string, b []byte) Reader { return Reader{what: what, buf: b} }

// take returns the next n bytes, or nil once the payload cannot supply
// them (recording the sticky error).
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("%s: truncated at byte %d (%d wanted, %d left)", r.what, r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes returns the next n bytes. The slice aliases the payload and is
// capped at its end, so appending to it never writes into what follows.
// A short payload returns nil.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Frame reads a u32 length and that many bytes (Writer.Frame's form).
func (r *Reader) Frame() []byte { return r.take(int(r.U32())) }

// Count vets n, a count of items read off the wire that take at least
// each bytes apiece: it returns n when the remaining bytes can hold that
// many, and otherwise 0 with the sticky error set. The test divides
// instead of multiplying, so no n and each overflow it; every item is
// charged at least one byte, so a count of empty items is bounded too.
func (r *Reader) Count(n uint32, each int) int {
	if r.err != nil {
		return 0
	}
	if each < 1 {
		each = 1
	}
	if left := len(r.buf) - r.off; uint64(n) > uint64(left)/uint64(each) {
		r.err = fmt.Errorf("%s: %d items of %d bytes claimed at byte %d, %d bytes left", r.what, n, each, r.off, left)
		return 0
	}
	return int(n)
}

// U64s fills dst from the next 8·len(dst) bytes, checking their length
// once; a short payload leaves dst untouched.
func (r *Reader) U64s(dst []uint64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// F64s is U64s for float64 values.
func (r *Reader) F64s(dst []float64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Left is the number of bytes not yet read.
func (r *Reader) Left() int { return len(r.buf) - r.off }

// Off is the number of bytes read so far.
func (r *Reader) Off() int { return r.off }

// Err is the sticky error: the first read that did not fit, or nil.
func (r *Reader) Err() error { return r.err }

// Done is the decoder's last call: the sticky error, or an error when
// bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("%s: %d trailing bytes", r.what, len(r.buf)-r.off)
	}
	return r.err
}
