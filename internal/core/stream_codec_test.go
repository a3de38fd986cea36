package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/wire"
	"keybin2/internal/xrand"
)

func runStreamPoints(t *testing.T, st *Stream, spec *synth.MixtureSpec, n int, seed int64) []int {
	t.Helper()
	src := spec.Stream(n, xrand.New(seed))
	var labels []int
	for {
		x, _, ok := src.Next()
		if !ok {
			return labels
		}
		l, err := st.Ingest(x)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, l)
	}
}

func TestStreamCheckpointResume(t *testing.T) {
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(110))
	cfg := StreamConfig{Config: Config{Seed: 111, Trials: 2}, Dims: 8,
		RawRanges: fixedRanges(8, -12, 12), Period: 400}

	// Reference: one continuous stream.
	ref, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refFirst := runStreamPoints(t, ref, spec, 1200, 112)
	refSecond := runStreamPoints(t, ref, spec, 800, 113)
	_ = refFirst

	// Checkpointed: same first half, then encode/decode, then second half.
	live, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runStreamPoints(t, live, spec, 1200, 112)
	snapshot, err := live.Encode()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeStream(cfg, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Seen() != live.Seen() {
		t.Fatalf("seen %d vs %d", restored.Seen(), live.Seen())
	}
	if (restored.Model() == nil) != (live.Model() == nil) {
		t.Fatal("model presence mismatch")
	}
	if restored.Model() != nil && restored.Model().K() != live.Model().K() {
		t.Fatalf("restored k %d vs %d", restored.Model().K(), live.Model().K())
	}
	gotSecond := runStreamPoints(t, restored, spec, 800, 113)
	if len(gotSecond) != len(refSecond) {
		t.Fatal("length mismatch")
	}
	diff := 0
	for i := range refSecond {
		if gotSecond[i] != refSecond[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Fatalf("%d/%d post-restore labels differ from continuous run", diff, len(refSecond))
	}
}

// TestStreamCheckpointStabilizedLabels runs a decaying stream through many
// refits — enough label churn that the stabilized ids can diverge from mass
// order — and asserts the restored model carries the live model's exact
// cluster ids and labels a probe batch identically. Regression for restarts
// silently renumbering clusters.
func TestStreamCheckpointStabilizedLabels(t *testing.T) {
	spec := synth.AutoMixture(4, 6, 6, 1, xrand.New(120))
	cfg := StreamConfig{Config: Config{Seed: 121, Trials: 2}, Dims: 6,
		RawRanges: fixedRanges(6, -12, 12), Period: 300, DecayFactor: 0.9}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runStreamPoints(t, st, spec, 6000, 122)
	live := st.Model()
	if live == nil {
		t.Fatal("no model after 6000 points")
	}
	snap, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeStream(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	want, got := live.installedLabels(), restored.Model().installedLabels()
	if len(want) != len(got) {
		t.Fatalf("cluster count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cluster %d: restored label %d, live %d", i, got[i], want[i])
		}
	}
	probe, _ := spec.Sample(512, xrand.New(123))
	for i := 0; i < probe.Rows; i++ {
		a, err := live.Assign(probe.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Model().Assign(probe.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("probe %d: live %d vs restored %d", i, a, b)
		}
	}
}

func TestStreamCheckpointErrors(t *testing.T) {
	cfg := StreamConfig{Config: Config{Seed: 1}, Dims: 4, Warmup: 100}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Encode(); err == nil {
		t.Fatal("checkpoint before warmup must fail")
	}
	if _, err := DecodeStream(cfg, []byte("bogus checkpoint")); err == nil {
		t.Fatal("bad magic must fail")
	}

	// trials mismatch
	good := StreamConfig{Config: Config{Seed: 1, Trials: 2}, Dims: 4,
		RawRanges: fixedRanges(4, -1, 1)}
	st2, err := NewStream(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Ingest([]float64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	snap, err := st2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Trials = 3
	if _, err := DecodeStream(bad, snap); err == nil {
		t.Fatal("trials mismatch must fail")
	}
	// truncation
	if _, err := DecodeStream(good, snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated checkpoint must fail")
	}
	if _, err := DecodeStream(good, append(snap, 1)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// TestStreamCheckpointShapeMismatch restores checkpoints into streams of
// another depth or another projected width. Both used to decode: the first
// then collapsed every sketch key (the shift is the config's, the
// histograms the checkpoint's), the second panicked on the next ingest.
// Decode now refuses them with the check a merged state gets.
func TestStreamCheckpointShapeMismatch(t *testing.T) {
	write := func(cfg StreamConfig) []byte {
		t.Helper()
		st, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := linalg.NewMatrix(64, cfg.Dims)
		rng := xrand.New(3)
		for i := range batch.Data {
			batch.Data[i] = rng.Float64()*2 - 1
		}
		if _, err := st.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	base := StreamConfig{Config: Config{Seed: 1, Trials: 2, Depth: 6, TargetDims: 4}, Dims: 6,
		RawRanges: fixedRanges(6, -1, 1), Period: 1 << 20}
	for _, c := range []struct {
		name   string
		modify func(*StreamConfig)
	}{
		{"depth", func(c *StreamConfig) { c.Depth = 10 }},
		{"target dims", func(c *StreamConfig) { c.TargetDims = 3 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap := write(base)
			if _, err := DecodeStream(base, snap); err != nil {
				t.Fatalf("same config: %v", err)
			}
			other := base
			c.modify(&other)
			if _, err := DecodeStream(other, snap); err == nil {
				t.Fatal("checkpoint of another shape decoded")
			}
		})
	}
}

// TestStreamCheckpointMeta pins the v2 metadata section: an opaque blob
// attached at encode time comes back verbatim, a metadata-free encode
// stays byte-identical to v1 (so pre-v2 readers keep working), and the
// metadata length is bounds-checked against truncation.
func TestStreamCheckpointMeta(t *testing.T) {
	cfg := StreamConfig{Config: Config{Seed: 5, Trials: 2}, Dims: 3,
		RawRanges: fixedRanges(3, -2, 2), Period: 200}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(50))
	runStreamPoints(t, st, spec, 600, 51)

	meta := []byte("wal-position: 42")
	blob, err := st.EncodeWithMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	restored, gotMeta, err := DecodeStreamMeta(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotMeta) != string(meta) {
		t.Fatalf("meta roundtrip: %q != %q", gotMeta, meta)
	}
	if restored.Seen() != st.Seen() {
		t.Fatalf("restored seen %d, want %d", restored.Seen(), st.Seen())
	}
	// DecodeStream must also accept a v2 blob (discarding the meta).
	if _, err := DecodeStream(cfg, blob); err != nil {
		t.Fatalf("DecodeStream on v2: %v", err)
	}

	// No meta → v1 wire version, and DecodeStreamMeta reports nil meta.
	v1, err := st.EncodeWithMeta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(v1[4:]); v != 1 {
		t.Fatalf("meta-free encode stamped version %d, want 1", v)
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != 2 {
		t.Fatalf("meta encode stamped version %d, want 2", v)
	}
	if _, m, err := DecodeStreamMeta(cfg, v1); err != nil || m != nil {
		t.Fatalf("v1 decode: meta=%v err=%v", m, err)
	}

	// A truncated v2 blob (cut inside the meta section) must fail loudly.
	cut := len("KB2S") + 4 + 8 + 4 + 4 + 2 // magic|ver|seen|nextID|metaLen|2 meta bytes
	if _, _, err := DecodeStreamMeta(cfg, blob[:cut]); err == nil {
		t.Fatal("truncated metadata accepted")
	}
}

// TestStreamEncodeDeterministic pins that a checkpoint's bytes are a
// function of the stream's state: the same stream encoded twice, two
// streams fed the same points, and a decode→encode round trip all give one
// byte string, with and without decay; so does a state installed from a
// merged fold, whose sketch is rebuilt from a map of counts. At TargetDims
// 14 a sketch cell's key takes two words.
func TestStreamEncodeDeterministic(t *testing.T) {
	encode := func(st *Stream) []byte {
		t.Helper()
		b, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		dims, nrp int
		decay     float64
	}{{8, 0, 0}, {8, 0, 0.9}, {32, 14, 0}, {32, 14, 0.9}} {
		spec := synth.AutoMixture(4, c.dims, 6, 1, xrand.New(130))
		cfg := StreamConfig{Config: Config{Seed: 131, Trials: 3, TargetDims: c.nrp}, Dims: c.dims,
			RawRanges: fixedRanges(c.dims, -12, 12), Period: 700, DecayFactor: c.decay}
		fed := func() *Stream {
			st, err := NewStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runStreamPoints(t, st, spec, 3000, 132)
			return st
		}
		a, b := fed(), fed()
		want := encode(a)
		if !bytes.Equal(encode(a), want) {
			t.Fatalf("%+v: one stream encoded twice gives different bytes", c)
		}
		if !bytes.Equal(encode(b), want) {
			t.Fatalf("%+v: two streams fed the same points encode differently", c)
		}
		restored, err := DecodeStream(cfg, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(restored), want) {
			t.Fatalf("%+v: decode→encode changed the bytes", c)
		}
	}
	spec := synth.AutoMixture(4, 8, 6, 1, xrand.New(130))

	shardCfg := StreamConfig{Config: Config{Seed: 7, Trials: 3}, Dims: 8,
		RawRanges: fixedRanges(8, -12, 12), Period: 1 << 30}
	shards := make([][]byte, 2)
	for i := range shards {
		st, err := NewStream(shardCfg)
		if err != nil {
			t.Fatal(err)
		}
		runStreamPoints(t, st, spec, 2000, int64(133+i))
		if shards[i], err = st.EncodeShardState(); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShardStates(shards...)
	if err != nil {
		t.Fatal(err)
	}
	var installed [][]byte
	for range 2 {
		g, err := NewGlobalModelState(shardCfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Install(merged); err != nil {
			t.Fatal(err)
		}
		installed = append(installed, encode(g.s), encode(g.s))
	}
	for i, b := range installed[1:] {
		if !bytes.Equal(b, installed[0]) {
			t.Fatalf("installed state: encoding %d differs from the first", i+1)
		}
	}
}

// TestDecodeStreamKeyCountBounded feeds DecodeStreamMeta a checkpoint whose
// first sketch claims 1<<26 keys in a body that holds a few: it must be
// refused without sizing anything from the claim.
func TestDecodeStreamKeyCountBounded(t *testing.T) {
	cfg := StreamConfig{Config: Config{Seed: 5, Trials: 2}, Dims: 3,
		RawRanges: fixedRanges(3, -2, 2), Period: 200}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runStreamPoints(t, st, synth.AutoMixture(2, 3, 6, 1, xrand.New(50)), 600, 51)
	blob, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Walk to trial 0's key count: v1 header, model frame, trial count,
	// set frame.
	r := wire.NewReader("checkpoint", blob)
	r.Bytes(4 + 4 + 8 + 4)
	if r.U8() == 1 {
		r.Frame()
	}
	r.U32() // trials
	r.Frame()
	if r.Err() != nil || r.Off()+4 > len(blob) {
		t.Fatalf("walking the checkpoint: %v", r.Err())
	}
	hostile := append([]byte(nil), blob[:r.Off()+4+64]...)
	binary.LittleEndian.PutUint32(hostile[r.Off():], 1<<26)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err = DecodeStreamMeta(cfg, hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a key count beyond the body was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("refusing the claim allocated %d bytes", grew)
	}
}

// TestDecodeStreamRefusesForeignSketchCells: a checkpoint whose sketch key
// addresses a coarse cell the stream does not have is refused, as a
// merged fold's is: both pass fitsTrial. Accepted, such a key once demoted the
// sketch to string keys, and the stream's next fold no longer merged with
// an honest one.
func TestDecodeStreamRefusesForeignSketchCells(t *testing.T) {
	for _, tc := range []struct {
		depth     int
		cells, in uint32
	}{
		{depth: 8, cells: 32, in: 40}, // past the packed 5 bits
		{depth: 3, cells: 8, in: 20},  // packs, but past the 8-cell table
	} {
		cfg := StreamConfig{Config: Config{Seed: 5, Trials: 2, Depth: tc.depth}, Dims: 3,
			RawRanges: fixedRanges(3, -2, 2), Period: 200}
		st, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.sketchCells() != tc.cells {
			t.Fatalf("depth %d: %d sketch cells, want %d", tc.depth, st.sketchCells(), tc.cells)
		}
		runStreamPoints(t, st, synth.AutoMixture(2, 3, 6, 1, xrand.New(50)), 600, 51)
		blob, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		// Walk to trial 0's first key record: v1 header, model frame, trial
		// count, set frame, key count, key width.
		r := wire.NewReader("checkpoint", blob)
		r.Bytes(4 + 4 + 8 + 4)
		if r.U8() == 1 {
			r.Frame()
		}
		r.U32() // trials
		r.Frame()
		if n := r.U32(); n == 0 || r.U32() != 3 || r.Err() != nil {
			t.Fatalf("depth %d: walking the checkpoint: %d keys, %v", tc.depth, n, r.Err())
		}
		for _, comp := range []uint32{tc.cells - 1, tc.in} {
			tampered := bytes.Clone(blob)
			binary.LittleEndian.PutUint32(tampered[r.Off():], comp)
			_, _, err := DecodeStreamMeta(cfg, tampered)
			if ok := comp < tc.cells; (err == nil) != ok {
				t.Errorf("depth %d: component %d of %d cells: decode error %v", tc.depth, comp, tc.cells, err)
			}
		}
	}
}

// foreignCheckpoints are checkpoints of fuzzStreamConfig's shape whose
// model, label or sketch state does not fit a stream of that config, each
// with a word its refusal must name. Every one used to be accepted: the trial
// panicked the next refit's keepTrial, the wide model the first Ingest,
// the stale nextID would hand out live labels again at a trial switch, the
// models of another seed or raw width label through projections the
// stream does not have, and a sketch mass of +Inf or 2^53 (past the
// exact whole counts a fold carries) made the next refit publish K 0 and
// every merge fold of the shard fail to decode.
func foreignCheckpoints(t testing.TB) []struct {
	name, want string
	b          []byte
} {
	t.Helper()
	checkpoint := func(cfg StreamConfig) []byte {
		st, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := synth.AutoMixture(2, cfg.Dims, 6, 1, xrand.New(50)).Sample(300, xrand.New(51))
		if _, err := st.IngestBatch(data); err != nil {
			t.Fatal(err)
		}
		if st.Model() == nil {
			t.Fatal("no model to checkpoint")
		}
		b, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// modelAt walks a v1 checkpoint to its model frame: the frame's start
	// and end.
	modelAt := func(b []byte) (int, int) {
		r := wire.NewReader("checkpoint", b)
		r.Bytes(4 + 4 + 8 + 4) // magic, version, seen, nextID
		if r.U8() != 1 {
			t.Fatal("checkpoint without a model")
		}
		start := r.Off()
		r.Frame()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		return start, r.Off()
	}
	base := checkpoint(fuzzStreamConfig)
	start, end := modelAt(base)

	trial := bytes.Clone(base)
	binary.LittleEndian.PutUint32(trial[start+4+clusterCountAt(t, base[start+4:end])-4:], 7)

	wideCfg := StreamConfig{Config: Config{Seed: 5, Trials: 2, Depth: 3, TargetDims: 5}, Dims: 8,
		RawRanges: fixedRanges(8, -2, 2), Period: 200}
	other := checkpoint(wideCfg)
	ws, we := modelAt(other)
	wide := append(append(bytes.Clone(base[:start]), other[ws:we]...), base[end:]...)

	stale := bytes.Clone(base)
	binary.LittleEndian.PutUint32(stale[4+4+8:], 0)

	// massAt puts mass into trial 0's first sketch key record: past the
	// model, the trial count, the set frame, the key count and the key.
	massAt := func(mass float64) []byte {
		r := wire.NewReader("checkpoint", base[end:])
		r.U32() // trials
		r.Frame()
		if n := r.U32(); n == 0 {
			t.Fatal("trial 0 has no sketch keys")
		}
		r.Bytes(4 * int(r.U32()))
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		b := bytes.Clone(base)
		binary.LittleEndian.PutUint64(b[end+r.Off():], math.Float64bits(mass))
		return b
	}

	// shifted moves the model's dimension 0 half a unit up, off its
	// trial's range: past the model's header, projection, set frame
	// length, dimension count and depth lie its Min and Max.
	shifted := bytes.Clone(base)
	r := wire.NewReader("model", base[start+4:end])
	r.Bytes(4 + 4)
	if r.U8() == 1 {
		r.Bytes(8 * int(r.U32()) * int(r.U32()))
	}
	r.Bytes(4 + 4 + 4)
	at := start + 4 + r.Off()
	lo, hi := r.F64(), r.F64()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	binary.LittleEndian.PutUint64(shifted[at:], math.Float64bits(lo+0.5))
	binary.LittleEndian.PutUint64(shifted[at+8:], math.Float64bits(hi+0.5))

	seeded := fuzzStreamConfig
	seeded.Seed = 6
	rawer := StreamConfig{Config: Config{Seed: 5, Trials: 2, Depth: 3, TargetDims: 3}, Dims: 4,
		RawRanges: fixedRanges(4, -2, 2), Period: 200}
	return []struct {
		name, want string
		b          []byte
	}{
		{"model trial", "trial 7", trial},
		{"model width", "5 histograms", wide},
		{"nextID below a label", "nextID", stale},
		{"model range off its trial's", "dimension 0 spans", shifted},
		{"another seed", "projection", checkpoint(seeded)},
		{"another raw width", "4×3 projection", checkpoint(rawer)},
		{"+Inf key mass", "mass +Inf", massAt(math.Inf(1))},
		{"2^53 key mass", "mass 9.007199254740992e+15", massAt(1 << 53)},
	}
}

// TestDecodeStreamRefusesForeignModel: a checkpoint whose model or label
// state does not fit the config, or whose model's ranges are not its
// trial's, is refused with an error naming what does not fit and builds
// no stream, and so is one whose model projects when the config does not,
// or the other way round.
func TestDecodeStreamRefusesForeignModel(t *testing.T) {
	for _, c := range foreignCheckpoints(t) {
		t.Run(c.name, func(t *testing.T) {
			s, _, err := DecodeStreamMeta(fuzzStreamConfig, c.b)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want an error naming %q, got %v", c.want, err)
			}
			if s != nil {
				t.Fatal("a refused checkpoint built a stream")
			}
		})
	}
	projecting := StreamConfig{Config: Config{Seed: 5, Trials: 1, Depth: 3, TargetDims: 3}, Dims: 3,
		RawRanges: fixedRanges(3, -2, 2), Period: 200}
	bare := projecting
	bare.NoProjection, bare.TargetDims = true, 0
	for _, c := range []struct{ from, into StreamConfig }{{projecting, bare}, {bare, projecting}} {
		st, err := NewStream(c.from)
		if err != nil {
			t.Fatal(err)
		}
		runStreamPoints(t, st, synth.AutoMixture(2, 3, 6, 1, xrand.New(50)), 300, 51)
		b, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeStream(c.from, b); err != nil {
			t.Fatalf("NoProjection %v into its own config: %v", c.from.NoProjection, err)
		}
		if _, err := DecodeStream(c.into, b); err == nil || !strings.Contains(err.Error(), "projection") {
			t.Fatalf("NoProjection %v into %v: want an error naming the projection, got %v",
				c.from.NoProjection, c.into.NoProjection, err)
		}
	}
}

// servingCheckpoint is the serving benchmark's stream (16 dims, 3 trials,
// ranges ±12, Period 5000) after 20,000 points, and its checkpoint.
func servingCheckpoint(t testing.TB) (StreamConfig, []byte) {
	t.Helper()
	cfg := StreamConfig{Config: Config{Seed: 41, Trials: 3}, Dims: 16,
		RawRanges: fixedRanges(16, -12, 12), Period: 5000}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := synth.AutoMixture(4, 16, 6, 1, xrand.New(80)).Sample(20000, xrand.New(81))
	if _, err := st.IngestBatch(data); err != nil {
		t.Fatal(err)
	}
	b, err := st.EncodeWithMeta([]byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, b
}

// TestDecodeStreamRefusalBuildsNothing: a checkpoint refused on its bytes
// costs its parse, not a stream. Cut after 40 bytes, the serving
// checkpoint is refused in under 1 KiB; building its stream takes ~86 KB.
func TestDecodeStreamRefusalBuildsNothing(t *testing.T) {
	cfg, b := servingCheckpoint(t)
	grew := uint64(math.MaxUint64)
	for range 5 { // the least of five: nothing else in the process counts
		grew = min(grew, allocated(func() {
			if _, _, err := DecodeStreamMeta(cfg, b[:40]); err == nil {
				t.Fatal("a checkpoint cut after 40 bytes decoded")
			}
		}))
	}
	if grew > 1<<10 {
		t.Fatalf("refusing a 40-byte checkpoint allocated %d bytes", grew)
	}
}

// BenchmarkDecodeStream restores the serving checkpoint (20,000 points)
// and refuses it cut after 40 bytes.
func BenchmarkDecodeStream(b *testing.B) {
	cfg, blob := servingCheckpoint(b)
	for _, c := range []struct {
		name string
		in   []byte
	}{{"accepted", blob}, {"refused", blob[:40]}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := DecodeStreamMeta(cfg, c.in); (err == nil) != (len(c.in) == len(blob)) {
					b.Fatalf("decode: %v", err)
				}
			}
		})
	}
}
