// Package server implements keybin2d's serving core: a long-running
// in-situ clustering service that owns one core.Stream behind a
// single-writer/many-reader architecture. Ingest batches flow through a
// bounded queue with backpressure; a dedicated writer goroutine applies
// them (triggering the stream's periodic refits); label/model/stats
// queries are answered from the stream's atomically-published immutable
// model snapshot, so reads never block on a refit. The daemon periodically
// checkpoints the stream to disk and restores from the checkpoint on
// restart.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"unsafe"

	"keybin2/internal/linalg"
	"keybin2/internal/wire"
)

// ErrBatchTooLarge marks batches whose row count exceeds the decoder's
// bound; the HTTP layer maps it to 413 instead of 400.
var ErrBatchTooLarge = errors.New("server: batch exceeds point limit")

// Batch wire format (little endian), following the stream codec
// conventions (4-byte magic, fixed-width length prefixes):
//
//	magic "KB2B" | dims u32 | count u32 | count×dims float64
//
// A batch is a dense row-major block of points. The same format serves
// ingest and label requests; it is self-describing enough for the server
// to validate dimensionality before touching the queue.

const batchMagic = "KB2B"

// batchHeaderSize is magic + dims + count.
const batchHeaderSize = 4 + 4 + 4

// EncodeBatch serializes a row-major point matrix into the binary batch
// format.
func EncodeBatch(m *linalg.Matrix) []byte {
	w := wire.Writer{Buf: make([]byte, 0, batchHeaderSize+8*len(m.Data))}
	w.Str(batchMagic)
	w.U32(uint32(m.Cols))
	w.U32(uint32(m.Rows))
	w.F64s(m.Data)
	return w.Buf
}

// hostLittleEndian gates the zero-copy decode: aliasing the wire payload
// as []float64 is only correct when the host's float byte order matches
// the little-endian wire format.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Batch is a decoded KB2B batch whose point data may alias the wire
// buffer it was decoded from (zero-copy) instead of owning a fresh copy.
// Ownership rule: the wire bytes passed to DecodeBatchAlias must stay
// alive and unmodified until Release — in the serving path the pooled
// request-body buffer rides inside the Batch and both return to their
// pools together, after apply. Batches come from an internal sync.Pool;
// Release recycles the struct and (when set) the body buffer, keeping the
// steady-state decode path allocation-free.
type Batch struct {
	M   linalg.Matrix
	raw []byte // wire bytes (may be aliased by M.Data)

	body    *Body     // pooled request body to recycle on Release (nil = caller-owned)
	copied  []float64 // retained copy-decode scratch (alignment/endianness fallback)
	aliased bool
}

// Raw returns the wire bytes the batch was decoded from — what the WAL
// stores. Valid until Release.
func (b *Batch) Raw() []byte { return b.raw }

// Aliased reports whether M.Data aliases the wire buffer (true) or was
// copy-decoded into owned scratch (false).
func (b *Batch) Aliased() bool { return b.aliased }

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Release returns the batch (and its pooled body buffer, if any) to their
// pools. The batch and its matrix must not be used afterwards.
func (b *Batch) Release() {
	if b.body != nil {
		b.body.Release()
		b.body = nil
	}
	b.M = linalg.Matrix{}
	b.raw = nil
	b.aliased = false
	batchPool.Put(b)
}

// Body is a message body read whole by ReadBody into a pooled buffer. The
// KB2B header is 12 bytes, so a payload read at offset bodyAlignPad of an
// 8-aligned allocation puts the float block at offset 16 — 8-byte aligned,
// which is what lets DecodeBatchAlias alias it without copying.
type Body struct{ b []byte }

const bodyAlignPad = 4

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// ErrBodyTooLarge marks a body over ReadBody's limit; the HTTP layer maps
// it to 413.
var ErrBodyTooLarge = errors.New("server: body exceeds limit")

// acquireBody returns a pooled buffer with room for n payload bytes at
// offset bodyAlignPad.
func acquireBody(n int) *Body {
	bb := bodyPool.Get().(*Body)
	if cap(bb.b) < bodyAlignPad+n {
		bb.b = make([]byte, bodyAlignPad+n)
	}
	bb.b = bb.b[:bodyAlignPad+n]
	return bb
}

// Bytes is the body. Valid until Release.
func (bb *Body) Bytes() []byte { return bb.b[bodyAlignPad:] }

// Release returns the buffer to the pool; nothing may touch Bytes after.
func (bb *Body) Release() { bodyPool.Put(bb) }

// ReadBody reads a body of declared length (a Content-Length; -1 when
// unknown) whole into a pooled buffer. A known length is one read of that
// size, refused before anything is read when it is over limit; an unknown
// one is refused at the first byte past limit. Both refusals wrap
// ErrBodyTooLarge and name the limit.
func ReadBody(rd io.Reader, length, limit int64) (*Body, error) {
	if length > limit {
		return nil, fmt.Errorf("%w: body is %d bytes, limit %d", ErrBodyTooLarge, length, limit)
	}
	var err error
	bb := acquireBody(int(max(length, 0)))
	if length >= 0 {
		_, err = io.ReadFull(rd, bb.Bytes())
	} else {
		buf := bytes.NewBuffer(bb.b)
		_, err = buf.ReadFrom(io.LimitReader(rd, limit+1))
		if bb.b = buf.Bytes(); err == nil && int64(len(bb.b)-bodyAlignPad) > limit {
			err = fmt.Errorf("%w: chunked body exceeds %d bytes", ErrBodyTooLarge, limit)
		}
	}
	if err != nil {
		bb.Release()
		return nil, err
	}
	return bb, nil
}

// DecodeBatchAlias parses a binary batch with the same validation as
// DecodeBatch, but without copying the point data when the payload can be
// aliased in place (little-endian host, 8-byte-aligned float block).
// When aliasing is unsafe the floats are copy-decoded into scratch the
// returned Batch retains across reuses. Either way the caller must treat
// raw as owned by the Batch until Release.
func DecodeBatchAlias(raw []byte, maxPoints int) (*Batch, error) {
	dims, count, block, err := ParseBatchHeader(raw, maxPoints)
	if err != nil {
		return nil, err
	}
	b := batchPool.Get().(*Batch)
	b.raw = raw
	b.M.Rows, b.M.Cols = count, dims
	n := dims * count
	if n == 0 {
		b.M.Data = nil
		b.aliased = false
		return b, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&block[0]))%8 == 0 {
		b.M.Data = unsafe.Slice((*float64)(unsafe.Pointer(&block[0])), n)
		b.aliased = true
		return b, nil
	}
	if cap(b.copied) < n {
		b.copied = make([]float64, n)
	}
	b.copied = b.copied[:n]
	r := wire.NewReader("server: batch", block)
	r.F64s(b.copied)
	b.M.Data = b.copied
	b.aliased = false
	return b, nil
}

// ParseBatchHeader is the one parse of a KB2B header, behind both batch
// decoders and the router's per-shard point accounting. It checks magic,
// dims, count (at most maxPoints; 0 = no bound) and that the float block
// fills the rest of b exactly, and returns that block.
func ParseBatchHeader(b []byte, maxPoints int) (dims, count int, block []byte, err error) {
	r := wire.NewReader("server: batch", b)
	magic, d, c := r.Bytes(4), r.U32(), r.U32()
	if r.Err() != nil || string(magic) != batchMagic {
		return 0, 0, nil, fmt.Errorf("server: not a point batch (missing %q header)", batchMagic)
	}
	if d == 0 || d > 1<<20 {
		return 0, 0, nil, fmt.Errorf("server: batch dims %d out of range", d)
	}
	if maxPoints > 0 && uint64(c) > uint64(maxPoints) {
		return 0, 0, nil, fmt.Errorf("%w: %d points, limit %d", ErrBatchTooLarge, c, maxPoints)
	}
	dims, count = int(d), r.Count(c, 8*int(d))
	block = r.Bytes(8 * dims * count)
	if err := r.Done(); err != nil {
		return 0, 0, nil, err
	}
	return dims, count, block, nil
}

// DecodeBatch parses a binary batch. maxPoints bounds the accepted row
// count (0 = no bound) so a malformed or hostile length prefix cannot
// drive a huge allocation.
func DecodeBatch(b []byte, maxPoints int) (*linalg.Matrix, error) {
	dims, count, block, err := ParseBatchHeader(b, maxPoints)
	if err != nil {
		return nil, err
	}
	m := linalg.NewMatrix(count, dims)
	r := wire.NewReader("server: batch", block)
	r.F64s(m.Data)
	return m, nil
}
