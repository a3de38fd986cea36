package histogram

import (
	"bytes"
	"runtime"
	"testing"
)

// codecs is this package's one format under fuzz, in the table shape the
// other packages use: decode parses a payload and, when it accepts one,
// returns the encoder of what it decoded. The set encoding is canonical:
// every accepted payload re-encodes to its own bytes.
var codecs = map[string]struct {
	seeds  func(testing.TB) [][]byte
	decode func([]byte) (func() []byte, error)
}{
	"set": {
		seeds: func(t testing.TB) [][]byte {
			s, err := NewSet([]float64{0, -1}, []float64{10, 1}, 3)
			if err != nil {
				t.Fatal(err)
			}
			s.AddPoint([]float64{5, 0})
			enc := s.Encode()
			claim := bytes.Clone(enc)
			claim[0], claim[1], claim[2], claim[3] = 0xFF, 0xFF, 0xFF, 0xFF // 2^32-1 dims
			return [][]byte{enc, claim, enc[:8]}
		},
		decode: func(b []byte) (func() []byte, error) {
			s, err := DecodeSet(b)
			if err != nil {
				return nil, err
			}
			return s.Encode, nil
		},
	},
}

// FuzzSet: DecodeSet never panics, allocates at most a fixed multiple of
// its input, and whatever it accepts re-encodes to the same bytes.
func FuzzSet(f *testing.F) {
	c := codecs["set"]
	for _, seed := range c.seeds(f) {
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
