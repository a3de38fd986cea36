package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"keybin2/internal/histogram"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// KB2H v2, one trial, seen 0, setLen 0: what precedes the key masses of a
// single-trial state that carries no histograms.
const tupleFrameHeader = foldMagic + "\x02\x00\x00\x00" + "\x01\x00\x00\x00" +
	"\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00"

// tupleSection is one trial's key masses as the fold encodes them, under
// layout: the tag | nentries | entries section.
func tupleSection(tab *flatTable, layout keyLayout) []byte {
	return (&foldState{trials: []foldTrial{{tuples: tab, keys: layout}}}).encode()[len(tupleFrameHeader):]
}

// packedCounts is a one-word count table holding the masses of m, filled
// in ascending key order.
func packedCounts(m map[uint64]uint64) *flatTable {
	tab := &flatTable{words: 1}
	for _, k := range sortedKeys(m) {
		tab.add([]uint64{k}, float64(m[k]))
	}
	return tab
}

func sortedKeys(m map[uint64]uint64) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// massesOf reads a one-word count table back as a map.
func massesOf(tab *flatTable) map[uint64]uint64 {
	m := make(map[uint64]uint64, tab.len())
	for c := range tab.len() {
		mass := tab.mass(c)
		m[tab.key(c)[0]] = uint64(mass)
	}
	return m
}

// readTupleSection decodes raw, as that section of a trial whose keys
// follow layout, through the one decoder.
func readTupleSection(raw []byte, layout keyLayout) (*flatTable, error) {
	f, err := decodeFold(append([]byte(tupleFrameHeader), raw...), []keyLayout{layout})
	if err != nil {
		return nil, err
	}
	return f.trials[0].tuples, nil
}

// decodeBounded decodes b and fails the test if that allocated more than a
// constant multiple of the input: a count read off the wire may size
// nothing the input could not back. (TotalAlloc is process-wide; the tests
// of this package run one at a time.)
func decodeBounded(t *testing.T, b []byte, tuples []keyLayout) (*foldState, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := decodeFold(b, tuples)
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+1<<14); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), grew, limit)
	}
	return st, err
}

// wideLayout is a segment-tuple layout of 30 dimensions at 3 bits, 90
// bits in all: its keys take two words and the fold's 'S' section.
func wideLayout() keyLayout {
	widths := make([]uint, 30)
	for j := range widths {
		widths[j] = 3
	}
	return newKeyLayout(widths, 2)
}

// foldSeeds are encodings the encoder produced from real fits and streams:
// the two payload shapes FitDistributed exchanges (histograms only; key
// masses only, one trial of one-word tuples and one of two-word tuples),
// one-word key masses alone, a shard state, and a merged one. Shallow
// histograms keep them small enough to mutate well. The layouts are what
// a trial without histograms keys, as decodeFold takes them.
func foldSeeds(t testing.TB) ([][]byte, []keyLayout) {
	data, _ := synth.AutoMixture(3, 12, 6, 1, xrand.New(70)).Sample(600, xrand.New(71))
	model, _, err := Fit(data, Config{Seed: 72, Trials: 2, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	layouts := []keyLayout{tupleLayout(model.Parts, model.Collapsed), wideLayout()}
	masses := map[uint64]uint64{}
	key := make([]uint64, 1)
	for _, cl := range model.Clusters {
		layouts[0].pack(key, cl.Segments)
		masses[key[0]] = cl.Mass
	}
	packed := packedCounts(masses)
	wide, segs, rng := &flatTable{words: 2}, make([]int, 30), xrand.New(73)
	for range 6 {
		for j := range segs {
			segs[j] = rng.Intn(8)
		}
		wkey := make([]uint64, 2)
		layouts[1].pack(wkey, segs)
		wide.add(wkey, float64(1+rng.Intn(500)))
	}
	src := synth.AutoMixture(3, 4, 6, 1, xrand.New(8)).Stream(0, xrand.New(9))
	shallow := make([]*Stream, 2)
	for i := range shallow {
		shallow[i], err = NewStream(StreamConfig{Config: Config{Seed: 7, Trials: 2, Depth: 3}, Dims: 4,
			RawRanges: fixedRanges(4, -10, 10), Period: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 200; n++ {
			x, _, _ := src.Next()
			if _, err := shallow[i].Ingest(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	states := encodeAll(t, shallow)
	merged, err := MergeShardStates(states...)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		(&foldState{seen: 600, trials: []foldTrial{{set: model.Set}, {set: model.Set}}}).encode(),
		(&foldState{seen: 600, trials: []foldTrial{{tuples: packed, keys: layouts[0]}, {tuples: wide, keys: layouts[1]}}}).encode(),
		(&foldState{seen: 600, trials: []foldTrial{{tuples: packed, keys: layouts[0]}}}).encode(),
		states[0],
		merged,
	}, layouts
}

// FuzzFoldState: the one consolidation decoder never panics and never
// allocates past a constant multiple of its input; whatever it accepts is
// canonical (re-encodes to the same bytes), and summed with itself it
// either decodes or fails with errMassPastExact, the latter exactly when
// some key mass doubles to 2^53 or more.
func FuzzFoldState(f *testing.F) {
	seeds, layouts := foldSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte("KB2H\x01\x00\x00\x00\x01\x00\x00\x00")) // v1: refused by version
	f.Add(foldMassState(1 << 52))                         // decodes; doubled, it would not
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeBounded(t, b, layouts)
		if err != nil {
			return
		}
		if !bytes.Equal(st.encode(), b) {
			t.Fatal("encode(decode(b)) != b")
		}
		sum, err := combineFold(layouts)(b, b)
		if doubles := massDoublesPastExact(st); doubles || err != nil {
			if !doubles || !errors.Is(err, errMassPastExact) {
				t.Fatalf("combine(b, b): %v, with a mass doubling past 2^53: %v", err, doubles)
			}
			return
		}
		if _, err := decodeFold(sum, layouts); err != nil {
			t.Fatalf("combine(b, b) does not decode: %v", err)
		}
	})
}

// foldMassState encodes a one-trial fold without histograms whose one
// one-word key carries mass.
func foldMassState(mass uint64) []byte {
	return (&foldState{trials: []foldTrial{{tuples: packedCounts(map[uint64]uint64{7: mass})}}}).encode()
}

// massDoublesPastExact reports whether st summed with itself carries a key
// mass of 2^53 or more.
func massDoublesPastExact(st *foldState) bool {
	for _, tr := range st.trials {
		if tr.tuples == nil {
			continue
		}
		for c := range tr.tuples.len() {
			m := tr.tuples.mass(c)
			if 2*m >= exactMassLimit {
				return true
			}
		}
	}
	return false
}

// randomMerge folds states in a random order and a random grouping.
func randomMerge(t *testing.T, rng *rand.Rand, states [][]byte) []byte {
	t.Helper()
	states = append([][]byte(nil), states...)
	rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
	for len(states) > 1 {
		// Replace a random run of ≥ 2 neighbours by its merge.
		lo := rng.Intn(len(states) - 1)
		hi := lo + 2 + rng.Intn(len(states)-lo-1)
		merged, err := MergeShardStates(states[lo:hi]...)
		if err != nil {
			t.Fatal(err)
		}
		states = append(append(states[:lo:lo], merged), states[hi:]...)
	}
	out, err := MergeShardStates(states[0])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFoldOneSumTwoTransports is the fold's contract over random streams
// cut into random partitions (empty ones included): the shard merge gives
// the same bytes in any order and grouping, those bytes are the state of
// one stream that saw everything, and K MPI ranks that SyncDistributed
// twice end where GlobalModelState.Install of the K shard states ends —
// the same histograms, sketch masses and model bytes, over tree and ring.
func TestFoldOneSumTwoTransports(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 5, 8} {
		for _, ring := range []bool{false, true} {
			cfg := StreamConfig{
				Config: Config{Seed: int64(20 + k), Trials: 3, Ring: ring}, Dims: 5,
				RawRanges: fixedRanges(5, -12, 12), Period: 1 << 30,
			}
			// Two phases of points, each point owned by a random one of the
			// partitions still in play; with K > 1 one partition stays empty
			// throughout and another gets nothing in the second phase.
			src := synth.AutoMixture(3, 5, 6, 1, xrand.New(int64(30+k))).Stream(0, xrand.New(rng.Int63()))
			var phases [2][][][]float64
			for p := range phases {
				phases[p] = make([][][]float64, k)
				owners := max(1, k-1-p)
				for i, n := 0, 300+rng.Intn(900); i < n; i++ {
					x, _, _ := src.Next()
					o := rng.Intn(owners)
					phases[p][o] = append(phases[p][o], x)
				}
			}
			feed := func(st *Stream, pts [][]float64) error {
				for _, x := range pts {
					if _, err := st.Ingest(x); err != nil {
						return err
					}
				}
				return nil
			}
			newStream := func() *Stream {
				st, err := NewStream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}

			// The HTTP-side path: K shards and one union stream, an Install
			// epoch after each phase.
			shards := make([]*Stream, k)
			for i := range shards {
				shards[i] = newStream()
			}
			union := newStream()
			global, err := NewGlobalModelState(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want [2][]byte // installed state ‖ model, per phase
			for p := range phases {
				for i, sh := range shards {
					if err := feed(sh, phases[p][i]); err != nil {
						t.Fatal(err)
					}
					if err := feed(union, phases[p][i]); err != nil {
						t.Fatal(err)
					}
				}
				states := encodeAll(t, shards)
				merged, err := MergeShardStates(states...)
				if err != nil {
					t.Fatal(err)
				}
				for draw := 0; draw < 4; draw++ {
					if got := randomMerge(t, rng, states); !bytes.Equal(got, merged) {
						t.Fatalf("K=%d phase %d: a reordered, regrouped merge gives other bytes", k, p)
					}
				}
				unionState, err := union.EncodeShardState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(merged, unionState) {
					t.Fatalf("K=%d phase %d: merged state is not the union stream's state", k, p)
				}
				model, err := global.Install(merged)
				if err != nil {
					t.Fatal(err)
				}
				if installed := global.s.fold().encode(); !bytes.Equal(installed, merged) {
					t.Fatalf("K=%d phase %d: installed state is not the merged state", k, p)
				}
				want[p] = slices.Concat(merged, model.Encode())
			}

			// The MPI-side path: the same partitions on K ranks, a sync after
			// each phase (the second ships deltas only).
			got, err := mpi.RunCollect(k, func(c *mpi.Comm) ([2][]byte, error) {
				var out [2][]byte
				st, err := NewStream(cfg)
				if err != nil {
					return out, err
				}
				for p := range phases {
					if err := feed(st, phases[p][c.Rank()]); err != nil {
						return out, err
					}
					if err := st.SyncDistributed(c); err != nil {
						return out, err
					}
					out[p] = slices.Concat(st.fold().encode(), st.Model().Encode())
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, out := range got {
				for p := range out {
					if !bytes.Equal(out[p], want[p]) {
						t.Fatalf("K=%d ring=%v rank %d sync %d: state or model differs from the Install of the shard states", k, ring, r, p)
					}
				}
			}
		}
	}
}

// TestAdoptRefusesWhatRefitCannotIndex: a merged state whose key masses
// address cells the stream does not have is refused whole — Refit maps
// every component to a bin — and nothing is installed.
func TestAdoptRefusesWhatRefitCannotIndex(t *testing.T) {
	shards, _ := shardFixture(t, 1, 500)
	good := encodeAll(t, shards)[0]
	tamper := func(fn func(st *foldState)) []byte {
		st, err := decodeFold(good, nil)
		if err != nil {
			t.Fatal(err)
		}
		fn(st)
		return st.encode()
	}
	width := len(shards[0].sets[0].Dims)
	cases := map[string][]byte{
		"bits above width·sketchBitsPerDim": tamper(func(st *foldState) {
			st.trials[1].tuples.add([]uint64{1 << uint(width*sketchBitsPerDim)}, 7)
		}),
		"'S' keys for one-word cells": tamper(func(st *foldState) {
			wider := sketchLayout(width + 12)
			tab := &flatTable{words: wider.words}
			tab.add(make([]uint64, wider.words), 7)
			st.trials[2].tuples, st.trials[2].keys = tab, wider
		}),
		"histograms missing": tamper(func(st *foldState) { st.trials[0].set = nil }),
		"histograms of another depth": tamper(func(st *foldState) {
			other, err := NewStream(StreamConfig{Config: Config{Seed: 7, Trials: 3, Depth: 4}, Dims: 4,
				RawRanges: fixedRanges(4, -10, 10), Period: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			st.trials[0].set = other.sets[0]
		}),
	}
	for name, blob := range cases {
		global, err := NewGlobalModelState(shards[0].cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := global.Install(blob); err == nil {
			t.Errorf("%s: installed", name)
		}
		if global.Seen() != 0 || global.Model() != nil || global.s.sets[0].Total() != 0 {
			t.Errorf("%s: a refused state left something behind", name)
		}
	}
	// A coarser stream (depth 4: 16 sketch cells per dimension) must refuse
	// a component that fits five bits but not its table, at one word and at
	// two (14 dimensions: 70 bits).
	for _, nrp := range []int{0, 14} {
		coarse := shards[0].cfg
		coarse.Depth, coarse.TargetDims = 4, nrp
		src, err := NewStream(coarse)
		if err != nil {
			t.Fatal(err)
		}
		st := src.fold()
		key := make([]uint64, st.trials[0].keys.words)
		st.trials[0].keys.put(key, 0, 20)
		st.trials[0].tuples.add(key, 1)
		global, err := NewGlobalModelState(coarse)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := global.Install(st.encode()); err == nil {
			t.Errorf("N_rp %d: component 20 installed into a 16-cell sketch", nrp)
		}
		if global.Model() != nil {
			t.Errorf("N_rp %d: a refused state published a model", nrp)
		}
	}
}

// TestCombineFold drives the mpi.Combine adapter directly: two encoded
// contributions sum, and what cannot be summed is an error, not a guess.
func TestCombineFold(t *testing.T) {
	contribution := func(x float64, tuples *flatTable, keys keyLayout) []byte {
		set, err := histogram.NewSet([]float64{0, 0}, []float64{10, 10}, 4)
		if err != nil {
			t.Fatal(err)
		}
		set.AddPoint([]float64{x, 0})
		return (&foldState{seen: 1, trials: []foldTrial{{set: set, tuples: tuples, keys: keys}}}).encode()
	}
	cells := sketchLayout(2)
	a := contribution(1, packedCounts(map[uint64]uint64{3: 1}), cells)
	b := contribution(9, packedCounts(map[uint64]uint64{3: 1, 8: 1}), cells)
	combine := combineFold(nil)
	out, err := combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := decodeFold(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	masses := massesOf(sum.trials[0].tuples)
	if tr := sum.trials[0]; sum.seen != 2 || tr.set.Total() != 2 || masses[3] != 2 || masses[8] != 1 {
		t.Fatalf("combined seen %d, total %d, masses %v", sum.seen, tr.set.Total(), masses)
	}
	if back, err := combine(b, a); err != nil || !bytes.Equal(back, out) {
		t.Fatalf("combine is not commutative (%v)", err)
	}
	wider := sketchLayout(14)
	wide := &flatTable{words: wider.words}
	wide.add(make([]uint64, wider.words), 1)
	for name, in := range map[string][]byte{
		"corrupt input":              {0},
		"string keys against packed": contribution(1, wide, wider),
		"histograms on one side only": (&foldState{trials: []foldTrial{
			{tuples: packedCounts(map[uint64]uint64{3: 1})}}}).encode(),
		"another trial count": (&foldState{trials: make([]foldTrial, 2)}).encode(),
		"another range": func() []byte {
			set, _ := histogram.NewSet([]float64{0, 0}, []float64{10, 11}, 4)
			return (&foldState{trials: []foldTrial{{set: set, tuples: packedCounts(map[uint64]uint64{})}}}).encode()
		}(),
	} {
		if _, err := combine(a, in); err == nil {
			t.Errorf("%s: combined", name)
		}
		if _, err := combine(in, a); err == nil {
			t.Errorf("%s: combined (as accumulator)", name)
		}
	}
}
