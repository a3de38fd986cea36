package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"keybin2/internal/synth"
	"keybin2/internal/wire"
	"keybin2/internal/xrand"
)

// codec is one byte format under fuzz: decode parses a payload and, when
// it accepts one, returns the encoder of what it decoded. A canonical
// format re-encodes every accepted payload to its own bytes; any other
// re-encodes to a fixed point of decode∘encode.
type codec struct {
	seeds     func(testing.TB) [][]byte
	decode    func([]byte) (func() []byte, error)
	canonical bool
}

// fuzzStreamConfig is the stream the KB2S seeds come from, and the one
// every fuzzed checkpoint is decoded against.
var fuzzStreamConfig = StreamConfig{Config: Config{Seed: 5, Trials: 2, Depth: 3}, Dims: 3,
	RawRanges: fixedRanges(3, -2, 2), Period: 200}

// codecs is every format of this package that FuzzFoldState does not
// cover. The fold's own target stays as it is.
var codecs = map[string]codec{
	"model": {
		seeds: modelSeeds,
		decode: func(b []byte) (func() []byte, error) {
			m, err := DecodeModel(b)
			if err != nil {
				return nil, err
			}
			return func() []byte {
				// Whatever decodes labels a point.
				dims := len(m.Set.Dims)
				if m.Projection != nil {
					dims = m.Projection.Rows
				}
				if _, err := m.Assign(make([]float64, dims)); err != nil {
					panic(err)
				}
				return m.Encode()
			}, nil
		},
	},
	"stream": {
		seeds: streamSeeds,
		decode: func(b []byte) (func() []byte, error) {
			s, meta, err := DecodeStreamMeta(fuzzStreamConfig, b)
			if err != nil {
				return nil, err
			}
			return func() []byte {
				enc, err := s.EncodeWithMeta(meta)
				if err != nil {
					panic(err)
				}
				return enc
			}, nil
		},
	},
}

func FuzzModel(f *testing.F)  { fuzzCodec(f, "model") }
func FuzzStream(f *testing.F) { fuzzCodec(f, "stream") }

// fuzzCodec: the decoder never panics, allocates at most a fixed multiple
// of its input, and whatever it accepts re-encodes as the format promises.
func fuzzCodec(f *testing.F, name string) {
	c := codecs[name]
	for _, seed := range c.seeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var enc func() []byte
		var err error
		if grew, limit := allocated(func() { enc, err = c.decode(b) }), uint64(64*len(b)+1<<14); grew > limit {
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

// allocated is the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// modelSeeds: a small fitted model with and without its projection, and
// the hostile payloads of the model tests.
func modelSeeds(t testing.TB) [][]byte {
	data, _ := synth.AutoMixture(2, 4, 6, 1, xrand.New(86)).Sample(300, xrand.New(87))
	model, _, err := Fit(data, Config{Seed: 88, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	enc := model.Encode()
	bare := *model
	bare.Projection = nil
	overflow := wire.Writer{}
	overflow.Str(modelMagic)
	overflow.U32(2)
	overflow.U8(1)
	overflow.U32(0xFFFFFFFF)
	overflow.U32(0xFFFFFFFF)
	overflow.Raw(make([]byte, 64))
	at := clusterCountAt(t, enc)
	foreign := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(foreign[at+4+8:], 1<<20)
	return append([][]byte{
		enc,
		bare.Encode(),
		overflow.Buf,
		binary.LittleEndian.AppendUint32(bytes.Clone(enc[:at]), 1<<20),
		foreign,
	}, unlabelableModels(t, model)...)
}

// streamSeeds: a checkpoint with metadata, one without, one whose first
// key count claims 2^26 records, and the foreignCheckpoints.
func streamSeeds(t testing.TB) [][]byte {
	st, err := NewStream(fuzzStreamConfig)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(50)).Sample(300, xrand.New(51))
	if _, err := st.IngestBatch(data); err != nil {
		t.Fatal(err)
	}
	withMeta, err := st.EncodeWithMeta([]byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader("checkpoint", withMeta)
	r.Bytes(4 + 4 + 8 + 4) // magic, version, seen, nextID
	r.Frame()              // meta
	if r.U8() == 1 {
		r.Frame()
	}
	r.U32() // trials
	r.Frame()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	claim := bytes.Clone(withMeta)
	binary.LittleEndian.PutUint32(claim[r.Off():], 1<<26)
	seeds := [][]byte{withMeta, plain, claim}
	for _, c := range foreignCheckpoints(t) {
		seeds = append(seeds, c.b)
	}
	return seeds
}
