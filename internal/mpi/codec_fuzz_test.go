package mpi

import (
	"bytes"
	"runtime"
	"testing"
)

// codecs is every byte format of this package under fuzz: decode parses a
// payload and, when it accepts one, returns the encoder of what it
// decoded. Both are canonical: every accepted payload re-encodes to its
// own bytes.
var codecs = map[string]struct {
	seeds  [][]byte
	decode func([]byte) (func() []byte, error)
}{
	"frames": {
		seeds: [][]byte{
			AppendBytesFrame(AppendBytesFrame(nil, []byte("hist")), nil),
			{0xFF, 0xFF, 0xFF, 0xFF, 1}, // a 2^32-1-byte frame claimed, one sent
		},
		decode: func(b []byte) (func() []byte, error) {
			frames, err := SplitBytesFrames(b)
			if err != nil {
				return nil, err
			}
			return func() []byte {
				var out []byte
				for _, f := range frames {
					out = AppendBytesFrame(out, f)
				}
				return out
			}, nil
		},
	},
	"uint64s": {
		seeds: [][]byte{EncodeUint64s([]uint64{1, 1 << 63}), {1, 2, 3}},
		decode: func(b []byte) (func() []byte, error) {
			v, err := DecodeUint64s(b)
			if err != nil {
				return nil, err
			}
			return func() []byte { return EncodeUint64s(v) }, nil
		},
	},
}

func FuzzBytesFrames(f *testing.F) { fuzzCodec(f, "frames") }
func FuzzUint64s(f *testing.F)     { fuzzCodec(f, "uint64s") }

// fuzzCodec: the decoder never panics, allocates at most a fixed multiple
// of its input, and whatever it accepts re-encodes to the same bytes.
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
		if err == nil && !bytes.Equal(enc(), b) {
			t.Fatal("encode(decode(b)) != b")
		}
	})
}
