package server

import (
	"bytes"
	"runtime"
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/wire"
)

// codec is one byte format under fuzz: decode parses a payload and, when
// it accepts one, returns the encoder of what it decoded. A canonical
// format re-encodes every accepted payload to its own bytes; any other
// re-encodes to a fixed point of decode∘encode.
type codec struct {
	seeds     [][]byte
	decode    func([]byte) (func() []byte, error)
	canonical bool
}

// codecs is every format of this package that FuzzTailFrames and
// FuzzWALSegment do not cover; those two stay as they are.
var codecs = map[string]codec{
	"batch": {
		seeds: func() [][]byte {
			m := linalg.NewMatrix(2, 3)
			copy(m.Data, []float64{1, -2, 3.5, 0, 1e300, -0.25})
			claim := wire.Writer{}
			claim.Str(batchMagic)
			claim.U32(3)
			claim.U32(0xFFFFFFFF)
			return [][]byte{EncodeBatch(m), EncodeBatch(linalg.NewMatrix(0, 3)), claim.Buf}
		}(),
		decode: func(b []byte) (func() []byte, error) {
			m, err := DecodeBatch(b, 0)
			if err != nil {
				return nil, err
			}
			return func() []byte { return EncodeBatch(m) }, nil
		},
		canonical: true,
	},
	"wal_entry": {
		seeds: [][]byte{
			append(encodeWALEntryHeader(nil, "p1", 7), "KB2B"...),
			encodeWALEntryHeader(nil, "", 0),
			{0xFF, 0xFF, 'p'}, // a 65535-byte producer claimed, one sent
		},
		decode: func(b []byte) (func() []byte, error) {
			producer, pseq, raw, err := decodeWALEntry(b)
			if err != nil {
				return nil, err
			}
			return func() []byte { return append(encodeWALEntryHeader(nil, producer, pseq), raw...) }, nil
		},
		canonical: true,
	},
	"wal_ckpt_meta": {
		seeds: func() [][]byte {
			claim := wire.Writer{}
			claim.U8(walCkptMetaVersion)
			claim.U64(9)
			claim.U32(0xFFFFFFFF)
			return [][]byte{encodeWALCkptMeta(12, map[string]uint64{"a": 3, "b": 12}), encodeWALCkptMeta(0, nil), claim.Buf}
		}(),
		// Producers decode in any order, and a repeated one keeps its last
		// sequence: the re-encoding is a fixed point, not the input.
		decode: func(b []byte) (func() []byte, error) {
			m, err := decodeWALCkptMeta(b)
			if err != nil {
				return nil, err
			}
			return func() []byte { return encodeWALCkptMeta(m.coveredSeq, m.producers) }, nil
		},
	},
}

func FuzzBatch(f *testing.F)       { fuzzCodec(f, "batch") }
func FuzzWALEntry(f *testing.F)    { fuzzCodec(f, "wal_entry") }
func FuzzWALCkptMeta(f *testing.F) { fuzzCodec(f, "wal_ckpt_meta") }

// fuzzCodec: the decoder never panics, allocates at most a fixed multiple
// of its input, and whatever it accepts re-encodes as the format promises.
func fuzzCodec(f *testing.F, name string) {
	c := codecs[name]
	for _, seed := range c.seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc, err := c.decode(b)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+1<<14); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), grew, limit)
		}
		if err != nil {
			return
		}
		out := enc()
		if c.canonical {
			if !bytes.Equal(out, b) {
				t.Fatal("encode(decode(b)) != b")
			}
			return
		}
		again, err := c.decode(out)
		if err != nil {
			t.Fatalf("the re-encoding does not decode: %v", err)
		}
		if !bytes.Equal(again(), out) {
			t.Fatal("the re-encoding is not a fixed point")
		}
	})
}
