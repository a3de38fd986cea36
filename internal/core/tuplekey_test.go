package core

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"

	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// randomParts builds a synthetic partition layout: dims dimensions with
// random cut counts in [0, maxCuts], over histograms of nbins bins, with
// each dimension collapsed with probability pCollapse.
func randomParts(rng *xrand.Stream, dims, nbins, maxCuts int, pCollapse float64) ([]partition.Result, []bool) {
	parts := make([]partition.Result, dims)
	collapsed := make([]bool, dims)
	for j := 0; j < dims; j++ {
		if rng.Float64() < pCollapse {
			collapsed[j] = true
			continue
		}
		ncuts := int(rng.Float64() * float64(maxCuts+1))
		seen := map[int]bool{}
		var cuts []int
		for len(cuts) < ncuts {
			c := int(rng.Float64() * float64(nbins-1))
			if !seen[c] {
				seen[c] = true
				cuts = append(cuts, c)
			}
		}
		sort.Ints(cuts)
		parts[j] = partition.Result{Cuts: cuts}
	}
	return parts, collapsed
}

func TestTupleCodecPackUnpackRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		dims := 1 + int(rng.Float64()*8)
		parts, collapsed := randomParts(rng, dims, 64, 10, 0.25)
		codec := newTupleCodec(parts, collapsed)
		if !codec.fits {
			t.Fatalf("trial %d: codec should fit (%d dims × ≤11 segs)", trial, dims)
		}
		segs := make([]int, dims)
		for j := range segs {
			if collapsed[j] {
				continue
			}
			segs[j] = int(rng.Float64() * float64(parts[j].Segments()))
		}
		got := make([]int, dims)
		codec.unpack(codec.pack(segs), got)
		for j := range segs {
			if got[j] != segs[j] {
				t.Fatalf("trial %d: round trip %v -> %v", trial, segs, got)
			}
		}
	}
}

// TestTupleCodecOrderMatchesStringKeys verifies the deterministic tie-break
// order buildLabels relies on: ascending packed keys sort like ascending
// legacy string keys (dimension 0 first).
func TestTupleCodecOrderMatchesStringKeys(t *testing.T) {
	rng := xrand.New(11)
	parts, collapsed := randomParts(rng, 5, 64, 12, 0)
	codec := newTupleCodec(parts, collapsed)
	draw := func() []int {
		segs := make([]int, 5)
		for j := range segs {
			segs[j] = int(rng.Float64() * float64(parts[j].Segments()))
		}
		return segs
	}
	for i := 0; i < 500; i++ {
		a, b := draw(), draw()
		packedLess := codec.pack(a) < codec.pack(b)
		stringLess := packSegments(a) < packSegments(b)
		if codec.pack(a) != codec.pack(b) && packedLess != stringLess {
			t.Fatalf("order disagreement for %v vs %v", a, b)
		}
	}
}

func TestTupleCodecOverflowFallsBack(t *testing.T) {
	// 17 dimensions × 16 segments = 68 bits > 64: must fall back.
	dims := 17
	parts := make([]partition.Result, dims)
	collapsed := make([]bool, dims)
	for j := range parts {
		cuts := make([]int, 15)
		for i := range cuts {
			cuts[i] = i * 4
		}
		parts[j] = partition.Result{Cuts: cuts}
	}
	if codec := newTupleCodec(parts, collapsed); codec.fits {
		t.Fatal("68-bit tuple claimed to fit in 64")
	}
	// 16 dimensions × 16 segments = 64 bits: exactly fits.
	if codec := newTupleCodec(parts[:16], collapsed[:16]); !codec.fits {
		t.Fatal("64-bit tuple should fit")
	}
}

// labelFix is a random mixture binned unprojected (its store holds the
// stored bins) and its partitions: everything the labeling kernels need.
type labelFix struct {
	data      *linalg.Matrix
	view      *projected
	set       *histogram.Set
	parts     []partition.Result
	collapsed []bool
}

func labelFixture(t *testing.T, seed int64, rows, dims int, collapseRelax float64) labelFix {
	t.Helper()
	spec := synth.AutoMixture(3, dims, 5, 1, xrand.New(seed))
	f := labelFix{}
	f.data, _ = spec.Sample(rows, xrand.New(seed+1))
	f.view, f.set = binView(f.data, 6)
	f.parts, f.collapsed = partitionSet(f.set, Config{CollapseRelax: collapseRelax})
	return f
}

// binView bins every row of data, unprojected, into one fresh set of the
// given depth over the data's own ranges; the store keeps the bins.
func binView(data *linalg.Matrix, depth int) (*projected, *histogram.Set) {
	view := viewOf(data)
	set, err := histogram.NewSet(view.mins, view.maxs, depth)
	if err != nil {
		panic(err)
	}
	binAll(view, []*histogram.Set{set}, 0)
	return view, set
}

// countOne counts one trial's tuples from the stored bins of a store that
// holds only that trial's columns.
func countOne(view *projected, k trialKeys, workers int) tupleCounts {
	return countTuples(view, []trialKeys{k}, workers)[0]
}

func TestPackedVsStringTupleCounts(t *testing.T) {
	for _, seed := range []int64{1, 17, 42, 99} {
		f := labelFixture(t, seed, 3000, 4, 1)
		set := f.set
		k := newTrialKeys(f.set, f.parts, f.collapsed)
		if k.lab == nil {
			t.Fatalf("seed %d: fixture unexpectedly overflowed", seed)
		}
		codec := k.lab.codec
		packed := massesOf(countOne(f.view, k, 4).u)
		str := countOne(f.view, trialKeys{parts: f.parts, collapsed: f.collapsed}, 4).s
		// The reference: labeler.key of every row's floats.
		want := make(map[uint64]uint64)
		for i := 0; i < f.data.Rows; i++ {
			want[k.lab.key(f.data.Row(i))]++
		}
		if !reflect.DeepEqual(packed, want) {
			t.Fatalf("seed %d: counts from stored bins differ from labeler.key's", seed)
		}
		if len(packed) != len(str) {
			t.Fatalf("seed %d: %d packed tuples vs %d string tuples", seed, len(packed), len(str))
		}
		segs := make([]int, len(set.Dims))
		for key, mass := range packed {
			codec.unpack(key, segs)
			if str[packSegments(segs)] != mass {
				t.Fatalf("seed %d: tuple %v mass %d vs %d", seed, segs, mass, str[packSegments(segs)])
			}
		}
	}
}

// forceStringModel clones a freshly fitted model onto the legacy
// string-keyed fallback path, so the two kernels can be compared directly.
func forceStringModel(m *Model) *Model {
	sm := *m
	sm.codec = tupleCodec{}
	sm.lab = nil
	sm.installLabels(identityLabels(len(sm.Clusters)))
	return &sm
}

func TestPackedVsStringAssignAll(t *testing.T) {
	for _, seed := range []int64{3, 21, 77} {
		f := labelFixture(t, seed, 2500, 3, 1)
		set := f.set
		tuples := countOne(f.view, newTrialKeys(set, f.parts, f.collapsed), 0)
		model, err := trialModel(set, f.parts, f.collapsed, tuples, Config{MinClusterSize: 2, MaxClusters: 256}, 0)
		if err != nil {
			t.Fatal(err)
		}
		model.finish(nil)
		if !model.codec.fits {
			t.Fatalf("seed %d: expected packed model", seed)
		}
		strModel := forceStringModel(model)
		fast, _ := model.AssignBatch(f.data, 4)
		slow, _ := strModel.AssignBatch(f.data, 4)
		fastBins := labelBins(f.view, 0, model, 4)
		slowBins := labelBins(f.view, 0, strModel, 4)
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("seed %d row %d: packed label %d vs string label %d", seed, i, fast[i], slow[i])
			}
			if fastBins[i] != fast[i] || slowBins[i] != fast[i] {
				t.Fatalf("seed %d row %d: labels from stored bins %d (packed) %d (string) vs %d", seed, i, fastBins[i], slowBins[i], fast[i])
			}
		}
		// Per-point assignment must agree too, including edge inputs: NaN,
		// far out-of-range coordinates, and exact histogram boundaries.
		probe := make([]float64, len(set.Dims))
		rng := xrand.New(seed + 5)
		for n := 0; n < 500; n++ {
			for j, h := range set.Dims {
				switch n % 5 {
				case 0:
					probe[j] = h.Min + rng.Float64()*(h.Max-h.Min)
				case 1:
					probe[j] = h.Min - 10
				case 2:
					probe[j] = h.Max + 10
				case 3:
					probe[j] = math.NaN()
				default:
					probe[j] = h.Min // exact lower edge
				}
			}
			if a, b := model.AssignProjected(probe), strModel.AssignProjected(probe); a != b {
				t.Fatalf("seed %d probe %v: packed %d vs string %d", seed, probe, a, b)
			}
		}
	}
}

// TestCollapsedDimensionsEquivalence forces collapsing on and checks the
// packed and string kernels agree when some dimensions contribute no bits.
func TestCollapsedDimensionsEquivalence(t *testing.T) {
	f := labelFixture(t, 5, 2000, 4, 1)
	collapsed := []bool{false, true, false, true} // force two collapsed dims
	k := newTrialKeys(f.set, f.parts, collapsed)
	if k.lab == nil {
		t.Fatal("fixture overflowed")
	}
	codec := k.lab.codec
	if codec.bits[1] != 0 || codec.bits[3] != 0 {
		t.Fatalf("collapsed dims got bits %v", codec.bits)
	}
	packed := massesOf(countOne(f.view, k, 0).u)
	str := countOne(f.view, trialKeys{parts: f.parts, collapsed: collapsed}, 0).s
	set := f.set
	if len(packed) != len(str) {
		t.Fatalf("%d packed vs %d string tuples", len(packed), len(str))
	}
	segs := make([]int, len(set.Dims))
	for key, mass := range packed {
		codec.unpack(key, segs)
		if segs[1] != 0 || segs[3] != 0 {
			t.Fatalf("collapsed segment leaked: %v", segs)
		}
		if str[packSegments(segs)] != mass {
			t.Fatalf("tuple %v mass %d vs %d", segs, mass, str[packSegments(segs)])
		}
	}
}

// TestWideTupleFallbackPipeline runs the counting + model assembly + assign
// pipeline on a partition layout too wide for 64 bits, exercising the
// string fallback end to end.
func TestWideTupleFallbackPipeline(t *testing.T) {
	dims := 17
	rows := 1500
	rng := xrand.New(9)
	data := linalg.NewMatrix(rows, dims)
	for i := range data.Data {
		data.Data[i] = rng.Float64() * 100
	}
	view, set := binView(data, 6)
	parts := make([]partition.Result, dims)
	collapsed := make([]bool, dims)
	for j := range parts {
		cuts := make([]int, 15)
		for i := range cuts {
			cuts[i] = (i + 1) * 4 // 16 segments per dim → 4 bits × 17 dims > 64
		}
		parts[j] = partition.Result{Cuts: cuts}
	}
	codec := newTupleCodec(parts, collapsed)
	if codec.fits {
		t.Fatal("expected fallback codec")
	}
	tuples := countOne(view, newTrialKeys(set, parts, collapsed), 0)
	if tuples.s == nil || tuples.u != nil {
		t.Fatal("fallback should produce string-keyed counts")
	}
	model, err := trialModel(set, parts, collapsed, tuples, Config{MinClusterSize: 1, MaxClusters: 1 << 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	model.finish(nil)
	if model.codec.fits || model.labelOfStr == nil {
		t.Fatal("model should be on the string fallback")
	}
	labels, _ := model.AssignBatch(data, 0)
	if !reflect.DeepEqual(labelBins(view, 0, model, 0), labels) {
		t.Fatal("labels from stored bins differ from AssignBatch's")
	}
	var mass uint64
	for _, cl := range model.Clusters {
		mass += cl.Mass
	}
	if int(mass) != rows {
		t.Fatalf("cluster mass %d for %d rows", mass, rows)
	}
	// Every row must land in a real cluster: with MinClusterSize 1 no
	// occupied tuple was dropped.
	for i, l := range labels {
		if l < 0 || l >= model.K() {
			t.Fatalf("row %d labeled %d", i, l)
		}
	}
}

// TestTupleCountsWire round-trips both tuple-count wire codecs and rejects
// mixed merges and corrupt frames.
func TestTupleCountsWire(t *testing.T) {
	u := packedCounts(map[uint64]uint64{3: 5, 9: 2, 0: 1})
	got, err := readTupleSection(tupleSection(u))
	if err != nil {
		t.Fatal(err)
	}
	if masses := massesOf(got.u); !reflect.DeepEqual(masses, massesOf(u.u)) {
		t.Fatalf("packed masses %v, encoded %v", masses, massesOf(u.u))
	}
	s := tupleCounts{s: map[string]uint64{"ab": 3, "": 1}}
	got, err = readTupleSection(tupleSection(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.s["ab"] != 3 || got.s[""] != 1 {
		t.Fatalf("string decode %v", got.s)
	}
	if _, err := mergeTupleCounts(u, got); err == nil {
		t.Fatal("merging packed with string should fail")
	}
	// The largest mass a count table holds exactly round-trips.
	top := packedCounts(map[uint64]uint64{7: 1<<53 - 1})
	if got, err := readTupleSection(tupleSection(top)); err != nil || massesOf(got.u)[7] != 1<<53-1 {
		t.Fatalf("mass 2^53-1: %v, %v", err, got.u)
	}
	if _, err := readTupleSection(nil); err == nil {
		t.Fatal("empty frame should fail")
	}
	if _, err := readTupleSection([]byte{'X', 0}); err == nil {
		t.Fatal("unknown tag should fail")
	}
	enc := tupleSection(u)
	if _, err := readTupleSection(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated packed frame should fail")
	}
	// Determinism: equal masses encode to identical bytes, whatever order
	// their table was filled in.
	u2 := tupleCounts{u: &flatTable{}}
	for _, k := range []uint64{9, 0, 3} {
		u2.u.add(k, float64(massesOf(u.u)[k]))
	}
	if !bytes.Equal(tupleSection(u), tupleSection(u2)) {
		t.Fatal("encoding is not canonical")
	}
}

// TestModelCodecPreservesLabeling is the checkpoint-compatibility guarantee:
// the model wire format stores segments explicitly and predates the packed
// keys, so payloads encoded before the change (byte-identical to today's
// encoder) must decode into a model that labels exactly like the original.
func TestModelCodecPreservesLabeling(t *testing.T) {
	spec := synth.AutoMixture(4, 24, 6, 1, xrand.New(31))
	data, _ := spec.Sample(6000, xrand.New(32))
	model, labels, err := Fit(data, Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	enc := model.Encode()
	decoded, err := DecodeModel(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding must reproduce the payload bit for bit (the format is
	// independent of the in-memory key representation).
	if !bytes.Equal(enc, decoded.Encode()) {
		t.Fatal("encode/decode/encode not stable")
	}
	got, err := decoded.AssignBatch(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("row %d: decoded model label %d vs fit label %d", i, got[i], labels[i])
		}
	}
	// And the decoded model must agree with its own string-fallback twin.
	strModel := forceStringModel(decoded)
	slow, err := strModel.AssignBatch(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != slow[i] {
			t.Fatalf("row %d: packed %d vs string %d", i, got[i], slow[i])
		}
	}
}

// viewOf wraps a matrix as an unprojected store (column ranges included) for
// tests that drive the fit passes directly.
func viewOf(data *linalg.Matrix) *projected {
	p, err := project(data, nil, 0)
	if err != nil {
		panic(err)
	}
	return p
}
