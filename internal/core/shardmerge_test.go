package core

import (
	"bytes"
	"errors"
	"testing"

	"keybin2/internal/synth"
	"keybin2/internal/wire"
	"keybin2/internal/xrand"
)

// shardFixture builds K streams with the identical shard config plus one
// "union" stream, partitions n synthetic points across the shards, and
// feeds every point to the union stream too.
func shardFixture(t testing.TB, k, n int) (shards []*Stream, union *Stream) {
	t.Helper()
	cfg := StreamConfig{
		Config: Config{Seed: 7, Trials: 3}, Dims: 4,
		RawRanges: fixedRanges(4, -10, 10), Period: 1 << 30,
	}
	for i := 0; i < k; i++ {
		st, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, st)
	}
	union, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := synth.AutoMixture(3, 4, 6, 1, xrand.New(8))
	src := spec.Stream(0, xrand.New(9))
	for i := 0; i < n; i++ {
		x, _, _ := src.Next()
		if _, err := shards[i%k].Ingest(x); err != nil {
			t.Fatal(err)
		}
		if _, err := union.Ingest(x); err != nil {
			t.Fatal(err)
		}
	}
	return shards, union
}

func encodeAll(t testing.TB, shards []*Stream) [][]byte {
	t.Helper()
	var states [][]byte
	for i, s := range shards {
		b, err := s.EncodeShardState()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		states = append(states, b)
	}
	return states
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

// The merge must be order-independent down to the bytes: any permutation
// of the same shard states produces an identical merged encoding.
func TestMergeShardStatesOrderIndependent(t *testing.T) {
	shards, _ := shardFixture(t, 3, 3000)
	states := encodeAll(t, shards)
	want, err := MergeShardStates(states...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range permutations(len(states)) {
		perm := make([][]byte, len(p))
		for i, j := range p {
			perm[i] = states[j]
		}
		got, err := MergeShardStates(perm...)
		if err != nil {
			t.Fatalf("perm %v: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("perm %v: merged bytes differ", p)
		}
	}
}

// Associativity: merging incrementally in any grouping equals the flat
// merge — the router may fold shard states as they arrive.
func TestMergeShardStatesAssociative(t *testing.T) {
	shards, _ := shardFixture(t, 3, 3000)
	states := encodeAll(t, shards)
	flat, err := MergeShardStates(states...)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := MergeShardStates(states[0], states[1])
	if err != nil {
		t.Fatal(err)
	}
	left, err := MergeShardStates(ab, states[2])
	if err != nil {
		t.Fatal(err)
	}
	bc, err := MergeShardStates(states[1], states[2])
	if err != nil {
		t.Fatal(err)
	}
	right, err := MergeShardStates(states[0], bc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(left, flat) || !bytes.Equal(right, flat) {
		t.Fatal("grouped merges differ from flat merge")
	}
}

// The paper's claim, at the state level: the merge of K shard states is
// byte-identical to the state of one node that ingested the whole stream.
func TestMergeShardStatesEqualsUnionStream(t *testing.T) {
	shards, union := shardFixture(t, 3, 3000)
	states := encodeAll(t, shards)
	merged, err := MergeShardStates(states...)
	if err != nil {
		t.Fatal(err)
	}
	unionState, err := union.EncodeShardState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, unionState) {
		t.Fatal("merged shard states differ from the single-node state")
	}
	st, err := decodeFold(merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.seen != 3000 {
		t.Fatalf("merged seen = %d, want 3000", st.seen)
	}
}

// And at the model level: the global model derived from the merge labels
// byte-identically to the single node's own refit.
func TestGlobalModelMatchesSingleNode(t *testing.T) {
	shards, union := shardFixture(t, 3, 3000)
	states := encodeAll(t, shards)
	merged, err := MergeShardStates(states...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{
		Config: Config{Seed: 7, Trials: 3}, Dims: 4,
		RawRanges: fixedRanges(4, -10, 10), Period: 1 << 30,
	}
	global, err := NewGlobalModelState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := global.Install(merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := union.Refit(); err != nil {
		t.Fatal(err)
	}
	um := union.Snapshot()
	if um == nil || gm == nil {
		t.Fatal("nil model after refit/install")
	}
	if !bytes.Equal(gm.Encode(), um.Encode()) {
		t.Fatal("global model differs from single-node model")
	}
	if global.Seen() != union.Seen() {
		t.Fatalf("global seen %d, union seen %d", global.Seen(), union.Seen())
	}
	// Labels agree point-for-point on fresh probes.
	spec := synth.AutoMixture(3, 4, 6, 1, xrand.New(8))
	src := spec.Stream(0, xrand.New(99))
	for i := 0; i < 512; i++ {
		x, _, _ := src.Next()
		gl, err := gm.Assign(x)
		if err != nil {
			t.Fatal(err)
		}
		ul, err := um.Assign(x)
		if err != nil {
			t.Fatal(err)
		}
		if gl != ul {
			t.Fatalf("probe %d: global label %d, union label %d", i, gl, ul)
		}
	}
}

// A second install epoch must stabilize labels against the first: the
// global state is the cluster's label-continuity authority.
func TestGlobalModelLabelContinuityAcrossEpochs(t *testing.T) {
	cfg := StreamConfig{
		Config: Config{Seed: 7, Trials: 3}, Dims: 4,
		RawRanges: fixedRanges(4, -10, 10), Period: 1 << 30,
	}
	global, err := NewGlobalModelState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := synth.AutoMixture(3, 4, 6, 1, xrand.New(8))
	src := spec.Stream(0, xrand.New(9))
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			x, _, _ := src.Next()
			if _, err := shard.Ingest(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(2000)
	st1, err := shard.EncodeShardState()
	if err != nil {
		t.Fatal(err)
	}
	m1, err := global.Install(st1)
	if err != nil {
		t.Fatal(err)
	}
	ingest(2000)
	st2, err := shard.EncodeShardState()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := global.Install(st2)
	if err != nil {
		t.Fatal(err)
	}
	// Same mixture, more data: the dominant clusters must keep their
	// epoch-1 labels rather than being renumbered from scratch.
	probes := spec.Stream(0, xrand.New(42))
	kept := 0
	for i := 0; i < 256; i++ {
		x, _, _ := probes.Next()
		l1, err := m1.Assign(x)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := m2.Assign(x)
		if err != nil {
			t.Fatal(err)
		}
		if l1 == l2 {
			kept++
		}
	}
	if kept < 200 {
		t.Fatalf("only %d/256 probe labels survived the second epoch", kept)
	}
}

func TestEncodeShardStateErrors(t *testing.T) {
	// Pre-warmup (no RawRanges, buffer not yet full).
	warm, err := NewStream(StreamConfig{
		Config: Config{Seed: 1, Trials: 2}, Dims: 3, Warmup: 500, Period: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.EncodeShardState(); err == nil {
		t.Fatal("want error before warmup")
	}
	// Decay is incompatible with the cross-shard merge.
	dec, err := NewStream(StreamConfig{
		Config: Config{Seed: 1, Trials: 2}, Dims: 3,
		RawRanges: fixedRanges(3, -5, 5), Period: 1 << 30, DecayFactor: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.EncodeShardState(); err == nil {
		t.Fatal("want error with DecayFactor")
	}
}

func TestMergeShardStatesErrors(t *testing.T) {
	if _, err := MergeShardStates(); err == nil {
		t.Fatal("want error merging zero states")
	}
	if _, err := MergeShardStates([]byte("not a shard state")); err == nil {
		t.Fatal("want error on garbage")
	}
	a, err := NewStream(StreamConfig{
		Config: Config{Seed: 1, Trials: 2}, Dims: 3,
		RawRanges: fixedRanges(3, -5, 5), Period: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(StreamConfig{
		Config: Config{Seed: 1, Trials: 3}, Dims: 3,
		RawRanges: fixedRanges(3, -5, 5), Period: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	for i := 0; i < 100; i++ {
		x := []float64{rng.Gaussian(0, 1), rng.Gaussian(0, 1), rng.Gaussian(0, 1)}
		if _, err := a.Ingest(x); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Ingest(x); err != nil {
			t.Fatal(err)
		}
	}
	sa, err := a.EncodeShardState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.EncodeShardState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardStates(sa, sb); err == nil {
		t.Fatal("want congruence error merging different trial counts")
	}
	// Truncation is detected, not silently accepted.
	if _, err := MergeShardStates(sa[:len(sa)-3]); err == nil {
		t.Fatal("want error on truncated state")
	}
	// Hostile bytes: a count read off the wire sizes nothing before it is
	// checked against the bytes that remain. The first two rows killed the
	// process ("fatal error: out of memory") through the v1 decoder.
	header := func(version, trials uint32) []byte {
		w := &wire.Writer{Buf: []byte(foldMagic)}
		w.U32(version)
		w.U32(trials)
		w.U64(0)
		return w.Buf
	}
	hostile := []struct {
		name string
		body []byte
	}{
		{"a bare 2^31-1 entry count (4 B)", []byte{0xff, 0xff, 0xff, 0x7f}},
		{"a v1 /hist body whose tuple map claims 2^31-1 entries (40 B)", append(header(1, 1),
			8, 0, 0, 0 /* setLen */, 0, 0, 0, 0, 1, 0, 0, 0, /* a 0-dim set */
			4, 0, 0, 0 /* tupLen */, 0xff, 0xff, 0xff, 0x7f)},
		{"the same count in a v2 string-keyed section", append(header(2, 1),
			0, 0, 0, 0 /* setLen */, tupleTagString, 0xff, 0xff, 0xff, 0x7f)},
		{"2^32-1 packed entries", append(header(2, 1),
			0, 0, 0, 0, tupleTagPacked, 0xff, 0xff, 0xff, 0xff)},
		{"2^16 trials in 20 bytes", header(2, 1<<16)},
		{"a packed mass of 2^53, past what a count table holds exactly", append(header(2, 1),
			0, 0, 0, 0, tupleTagPacked, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x20, 0)},
		{"a string key longer than the input", append(header(2, 1),
			0, 0, 0, 0, tupleTagString, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0)},
	}
	for _, h := range hostile {
		if _, err := decodeBounded(t, h.body, nil); err == nil {
			t.Errorf("%s: decoded", h.name)
		}
		if _, err := MergeShardStates(h.body); err == nil {
			t.Errorf("%s: merged", h.name)
		}
		if _, err := MergeShardStates(sa, h.body); err == nil {
			t.Errorf("%s: merged into a good state", h.name)
		}
	}
	// A mass of 2^52 decodes, but two of them sum past what a count table
	// holds exactly: the merge refuses rather than encode bytes no decoder
	// takes.
	half := foldMassState(1 << 52)
	if _, err := MergeShardStates(half); err != nil {
		t.Fatalf("a mass of 2^52: %v", err)
	}
	if _, err := MergeShardStates(half, half); !errors.Is(err, errMassPastExact) {
		t.Fatalf("2^52 + 2^52: got %v, want errMassPastExact", err)
	}
}

func TestNewGlobalModelStateValidation(t *testing.T) {
	if _, err := NewGlobalModelState(StreamConfig{
		Config: Config{Seed: 1, Trials: 2}, Dims: 3, Warmup: 100, Period: 200,
	}); err == nil {
		t.Fatal("want error without RawRanges")
	}
	if _, err := NewGlobalModelState(StreamConfig{
		Config: Config{Seed: 1, Trials: 2}, Dims: 3,
		RawRanges: fixedRanges(3, -5, 5), Period: 200, DecayFactor: 0.5,
	}); err == nil {
		t.Fatal("want error with DecayFactor")
	}
}
