package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"keybin2/internal/cluster"
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
		dims := 1 + int(rng.Float64()*30)
		parts, collapsed := randomParts(rng, dims, 64, 10, 0.25)
		layout := tupleLayout(parts, collapsed)
		segs := make([]int, dims)
		for j := range segs {
			if collapsed[j] {
				continue
			}
			segs[j] = int(rng.Float64() * float64(parts[j].Segments()))
		}
		key := make([]uint64, layout.words)
		layout.pack(key, segs)
		if got := layout.unpack(key); !slices.Equal(got, segs) {
			t.Fatalf("trial %d (%d words): round trip %v -> %v", trial, layout.words, segs, got)
		}
	}
}

// TestTupleCodecOrderMatchesStringKeys verifies the deterministic tie-break
// order buildLabels relies on: ascending keys, one word or two, sort like
// their 'S' form — the former string keys — does (dimension 0 first).
func TestTupleCodecOrderMatchesStringKeys(t *testing.T) {
	rng := xrand.New(11)
	for _, dims := range []int{5, 24} {
		parts, collapsed := randomParts(rng, dims, 64, 12, 0)
		layout := tupleLayout(parts, collapsed)
		draw := func() []uint64 {
			segs := make([]int, dims)
			for j := range segs {
				segs[j] = int(rng.Float64() * float64(parts[j].Segments()))
			}
			key := make([]uint64, layout.words)
			layout.pack(key, segs)
			return key
		}
		for i := 0; i < 500; i++ {
			a, b := draw(), draw()
			if slices.Compare(a, b) != bytes.Compare(layout.appendWire(nil, a), layout.appendWire(nil, b)) {
				t.Fatalf("%d dims: order disagreement for %x vs %x", dims, a, b)
			}
		}
	}
}

func TestTupleLayoutOverflowTakesTwoWords(t *testing.T) {
	// 17 dimensions × 16 segments = 68 bits > 64: two words.
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
	if w := tupleLayout(parts, collapsed).words; w != 2 {
		t.Fatalf("68-bit tuple takes %d words", w)
	}
	// 16 dimensions × 16 segments = 64 bits: exactly one word.
	if w := tupleLayout(parts[:16], collapsed[:16]).words; w != 1 {
		t.Fatalf("64-bit tuple takes %d words", w)
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

func labelFixture(t *testing.T, seed int64, rows, dims int) labelFix {
	t.Helper()
	spec := synth.AutoMixture(3, dims, 5, 1, xrand.New(seed))
	f := labelFix{}
	f.data, _ = spec.Sample(rows, xrand.New(seed+1))
	f.view, f.set = binView(f.data, 6)
	f.parts, f.collapsed = partitionSet(f.set)
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
func countOne(view *projected, k trialKeys, workers int) *flatTable {
	return countTuples(view, []trialKeys{k}, workers)[0]
}

// stringCounts is the reference count: every row's segment tuple from
// Hist.Bin and Result.SegmentOf, keyed by its 'S' form, the string key the
// fit used before tuples packed.
func stringCounts(data *linalg.Matrix, set *histogram.Set, parts []partition.Result, collapsed []bool) map[string]uint64 {
	out := map[string]uint64{}
	for i := 0; i < data.Rows; i++ {
		out[string(segmentWire(data.Row(i), set, parts, collapsed))]++
	}
	return out
}

// segmentWire is x's segment tuple in the 'S' form: a u16 per dimension.
func segmentWire(x []float64, set *histogram.Set, parts []partition.Result, collapsed []bool) []byte {
	var b []byte
	for j, h := range set.Dims {
		seg := 0
		if !collapsed[j] {
			seg = parts[j].SegmentOf(h.Bin(x[j]))
		}
		b = append(b, byte(seg), byte(seg>>8))
	}
	return b
}

// wireMasses reads a count table as masses by the 'S' form of its keys.
func wireMasses(tab *flatTable, layout keyLayout) map[string]uint64 {
	out := map[string]uint64{}
	for c := range tab.len() {
		m := tab.mass(c)
		out[string(layout.appendWire(nil, tab.key(c)))] = uint64(m)
	}
	return out
}

// refLabels labels every row of data the way the string-keyed model did:
// the installed label of the cluster whose segments are the row's, noise
// for none.
func refLabels(m *Model, data *linalg.Matrix) []int {
	labelOf := map[string]int{}
	for i, l := range m.installedLabels() {
		var b []byte
		for _, s := range m.Clusters[i].Segments {
			b = append(b, byte(s), byte(s>>8))
		}
		labelOf[string(b)] = l
	}
	out := make([]int, data.Rows)
	for i := range out {
		l, ok := labelOf[string(segmentWire(data.Row(i), m.Set, m.Parts, m.Collapsed))]
		if !ok {
			l = cluster.Noise
		}
		out[i] = l
	}
	return out
}

func TestPackedVsStringTupleCounts(t *testing.T) {
	for _, seed := range []int64{1, 17, 42, 99} {
		f := labelFixture(t, seed, 3000, 4)
		k := newTrialKeys(f.set, f.parts, f.collapsed)
		tab := countOne(f.view, k, 4)
		// The references: the key of every row binned on its own by a
		// one-row BinRows, and the string-keyed count.
		want := &flatTable{words: k.lab.words()}
		key := make([]uint64, k.lab.words())
		for i := 0; i < f.data.Rows; i++ {
			k.lab.binKey(key, rowBins(f.set, f.data.Row(i)))
			want.add(key, 1)
		}
		if !reflect.DeepEqual(wireMasses(tab, k.lab.layout), wireMasses(want, k.lab.layout)) {
			t.Fatalf("seed %d: counts from stored bins differ from the one-row keys", seed)
		}
		if str := stringCounts(f.data, f.set, f.parts, f.collapsed); !reflect.DeepEqual(wireMasses(tab, k.lab.layout), str) {
			t.Fatalf("seed %d: packed counts differ from the string-keyed count", seed)
		}
	}
}

// TestPackedVsStringAssignAll holds AssignBatch to the string-keyed
// reference on unprojected models, a projected one and one whose tuples
// take two words, at row counts either side of a block and with one and
// three workers; the fit's labels from stored bins and one-row queries of
// edge values agree too.
func TestPackedVsStringAssignAll(t *testing.T) {
	type input struct {
		name        string
		model       *Model
		data, space *linalg.Matrix // the rows AssignBatch takes; the same rows in the histograms' space
	}
	var inputs []input
	for _, seed := range []int64{3, 21, 77} {
		f := labelFixture(t, seed, 2500, 3)
		set := f.set
		tuples := countOne(f.view, newTrialKeys(set, f.parts, f.collapsed), 0)
		model, err := trialModel(set, f.parts, f.collapsed, tuples, 2, maxClusters, 0)
		if err != nil {
			t.Fatal(err)
		}
		model.finish(nil)
		fast, _ := model.AssignBatch(f.data, 4)
		slow := refLabels(model, f.data)
		fastBins := labelBins(f.view, 0, model, 4)
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("seed %d row %d: packed label %d vs string label %d", seed, i, fast[i], slow[i])
			}
			if fastBins[i] != fast[i] {
				t.Fatalf("seed %d row %d: label from stored bins %d vs %d", seed, i, fastBins[i], fast[i])
			}
		}
		// A one-row query must agree too, including edge inputs: NaN, far
		// out-of-range coordinates, and exact histogram boundaries.
		probe := linalg.NewMatrix(1, len(set.Dims))
		rng := xrand.New(seed + 5)
		for n := 0; n < 500; n++ {
			for j, h := range set.Dims {
				switch n % 5 {
				case 0:
					probe.Data[j] = h.Min + rng.Float64()*(h.Max-h.Min)
				case 1:
					probe.Data[j] = h.Min - 10
				case 2:
					probe.Data[j] = h.Max + 10
				case 3:
					probe.Data[j] = math.NaN()
				default:
					probe.Data[j] = h.Min // exact lower edge
				}
			}
			got, err := model.AssignBatch(probe, 1)
			if want := refLabels(model, probe)[0]; err != nil || got[0] != want {
				t.Fatalf("seed %d probe %v: packed %v (%v) vs string %d", seed, probe.Data, got, err, want)
			}
		}
		inputs = append(inputs, input{fmt.Sprintf("seed %d", seed), model, f.data, f.data})
	}

	// A projected model: its queries are raw rows, the reference reads
	// them through linalg.Mul, the product MulPacked matches bit for bit.
	raw, _ := synth.AutoMixture(3, 12, 5, 1, xrand.New(8)).Sample(2500, xrand.New(9))
	pm, _, err := Fit(raw, Config{Seed: 4, TargetDims: 6})
	if err != nil {
		t.Fatal(err)
	}
	space, err := linalg.Mul(linalg.NewMatrix(raw.Rows, 6), raw, pm.Projection)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"projected", pm, raw, space})

	// N_rp 13 of 17 segments each: 65-bit tuples, two words.
	f := labelFixture(t, 5, 2500, 13)
	for j := range f.parts {
		cuts := make([]int, 16)
		for i := range cuts {
			cuts[i] = (i + 1) * 3
		}
		f.parts[j], f.collapsed[j] = partition.Result{Cuts: cuts}, false
	}
	wide, err := trialModel(f.set, f.parts, f.collapsed, countOne(f.view, newTrialKeys(f.set, f.parts, f.collapsed), 0), 1, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	wide.finish(nil)
	if wide.lab.words() != 2 {
		t.Fatalf("65-bit tuples take %d words", wide.lab.words())
	}
	inputs = append(inputs, input{"two words", wide, f.data, f.data})

	for _, in := range inputs {
		for _, rows := range []int{1, 1023, 1024, 1025, 2049} {
			data := &linalg.Matrix{Rows: rows, Cols: in.data.Cols, Data: in.data.Data[:rows*in.data.Cols]}
			want := refLabels(in.model, &linalg.Matrix{Rows: rows, Cols: in.space.Cols, Data: in.space.Data[:rows*in.space.Cols]})
			for _, workers := range []int{1, 3} {
				got, err := in.model.AssignBatch(data, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d rows, %d workers: AssignBatch differs from the string-keyed labels", in.name, rows, workers)
				}
			}
		}
	}
}

// TestCollapsedDimensionsEquivalence forces collapsing on and checks the
// packed and string counts agree when some dimensions contribute no bits.
func TestCollapsedDimensionsEquivalence(t *testing.T) {
	f := labelFixture(t, 5, 2000, 4)
	collapsed := []bool{false, true, false, true} // force two collapsed dims
	k := newTrialKeys(f.set, f.parts, collapsed)
	layout := k.lab.layout
	if layout.bits[1] != 0 || layout.bits[3] != 0 {
		t.Fatalf("collapsed dims got bits %v", layout.bits)
	}
	tab := countOne(f.view, k, 0)
	for c := range tab.len() {
		if segs := layout.unpack(tab.key(c)); segs[1] != 0 || segs[3] != 0 {
			t.Fatalf("collapsed segment leaked: %v", segs)
		}
	}
	if str := stringCounts(f.data, f.set, f.parts, collapsed); !reflect.DeepEqual(wireMasses(tab, layout), str) {
		t.Fatal("packed counts differ from the string-keyed count")
	}
}

// TestWideTuplePipeline runs the counting + model assembly + assign
// pipeline on a partition layout too wide for 64 bits, end to end on
// two-word keys.
func TestWideTuplePipeline(t *testing.T) {
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
	k := newTrialKeys(set, parts, collapsed)
	if k.lab.words() != 2 {
		t.Fatalf("68-bit tuples take %d words", k.lab.words())
	}
	tuples := countOne(view, k, 0)
	if str := stringCounts(data, set, parts, collapsed); !reflect.DeepEqual(wireMasses(tuples, k.lab.layout), str) {
		t.Fatal("two-word counts differ from the string-keyed count")
	}
	model, err := trialModel(set, parts, collapsed, tuples, 1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	model.finish(nil)
	labels, _ := model.AssignBatch(data, 0)
	if !reflect.DeepEqual(labelBins(view, 0, model, 0), labels) {
		t.Fatal("labels from stored bins differ from AssignBatch's")
	}
	if !reflect.DeepEqual(refLabels(model, data), labels) {
		t.Fatal("labels differ from the string-keyed reference")
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

// TestTupleCountsWire round-trips both tuple-count wire forms and rejects
// merges across widths and corrupt frames.
func TestTupleCountsWire(t *testing.T) {
	one := newKeyLayout([]uint{8, 8}, 2)
	u := packedCounts(map[uint64]uint64{3: 5, 9: 2, 0: 1})
	got, err := readTupleSection(tupleSection(u, one), one)
	if err != nil {
		t.Fatal(err)
	}
	if masses := massesOf(got); !reflect.DeepEqual(masses, massesOf(u)) {
		t.Fatalf("packed masses %v, encoded %v", masses, massesOf(u))
	}
	wide := wideLayout()
	s, key := &flatTable{words: 2}, make([]uint64, 2)
	segs := make([]int, 30)
	for _, v := range []int{1, 7} {
		segs[0], segs[29] = v, v
		wide.pack(key, segs)
		s.add(key, float64(v))
	}
	got, err = readTupleSection(tupleSection(s, wide), wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wireMasses(got, wide), wireMasses(s, wide)) {
		t.Fatalf("two-word decode %v, encoded %v", wireMasses(got, wide), wireMasses(s, wide))
	}
	if _, err := mergeCounts(u, got); err == nil {
		t.Fatal("merging one-word with two-word keys should fail")
	}
	if _, err := readTupleSection(tupleSection(u, one), wide); err == nil {
		t.Fatal("'U' entries for two-word keys should fail")
	}
	if _, err := readTupleSection(tupleSection(s, wide), one); err == nil {
		t.Fatal("'S' entries for one-word keys should fail")
	}
	// The largest mass a count table holds exactly round-trips.
	top := packedCounts(map[uint64]uint64{7: 1<<53 - 1})
	if got, err := readTupleSection(tupleSection(top, one), one); err != nil || massesOf(got)[7] != 1<<53-1 {
		t.Fatalf("mass 2^53-1: %v, %v", err, got)
	}
	if _, err := readTupleSection(nil, one); err == nil {
		t.Fatal("empty frame should fail")
	}
	if _, err := readTupleSection([]byte{'X', 0}, one); err == nil {
		t.Fatal("unknown tag should fail")
	}
	enc := tupleSection(u, one)
	if _, err := readTupleSection(enc[:len(enc)-3], one); err == nil {
		t.Fatal("truncated packed frame should fail")
	}
	// Determinism: equal masses encode to identical bytes, whatever order
	// their table was filled in.
	u2 := &flatTable{words: 1}
	for _, k := range []uint64{9, 0, 3} {
		u2.add([]uint64{k}, float64(massesOf(u)[k]))
	}
	if !bytes.Equal(tupleSection(u, one), tupleSection(u2, one)) {
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
}

// rowBins bins one row x under set's histograms by a one-row
// linalg.BinRows, as a one-row query is binned.
func rowBins(set *histogram.Set, x []float64) []uint16 {
	lo, iw := make([]float64, len(x)), make([]float64, len(x))
	for j, h := range set.Dims {
		lo[j], iw[j] = h.Min, h.InvWidth()
	}
	out := make([]uint16, len(x))
	linalg.BinRows(out, x, len(x), lo, iw, set.Dims[0].Bins())
	return out
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

// TestLabelerMatchesLayout: over random layouts of up to 40 dimensions —
// fields of 0 to 17 bits, fields that straddle two words, fields of no
// bits at word boundaries and above word 0 — the labeler's key of a
// point's bins is the layout's pack of its fields, from bins given and
// from bins linalg.BinRows writes for the point's floats alike.
func TestLabelerMatchesLayout(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 300; trial++ {
		dims := 1 + rng.Intn(40)
		widths := make([]uint, dims)
		for j := range widths {
			if rng.Intn(4) > 0 {
				widths[j] = uint(rng.Intn(18))
			}
		}
		if trial%3 == 0 { // make the total a multiple of 64 with a zero-width first field
			widths[0] = 0
			total := uint(0)
			for _, b := range widths {
				total += b
			}
			if pad := (64 - total%64) % 64; pad > 0 {
				widths = append(widths, pad%17, pad-pad%17)
				dims += 2
			}
		}
		layout := newKeyLayout(widths, 2)
		mins, maxs := make([]float64, dims), make([]float64, dims)
		for j := range maxs {
			maxs[j] = 1
		}
		set, err := histogram.NewSet(mins, maxs, 4)
		if err != nil {
			t.Fatal(err)
		}
		field := func(j, bin int) uint64 { return uint64(bin*7919+j) & (1<<widths[j] - 1) }
		lab := binLabeler(layout, 16, field)
		bins, x, want := make([]uint16, dims), make([]float64, dims), make([]int, dims)
		got, fromX, ref := make([]uint64, layout.words), make([]uint64, layout.words), make([]uint64, layout.words)
		for n := 0; n < 20; n++ {
			for j := range bins {
				bins[j] = uint16(rng.Intn(16))
				x[j] = (float64(bins[j]) + 0.5) / 16
				want[j] = int(field(j, int(bins[j])))
			}
			layout.pack(ref, want)
			lab.binKey(got, bins)
			lab.binKey(fromX, rowBins(set, x))
			if !slices.Equal(got, ref) || !slices.Equal(fromX, ref) {
				t.Fatalf("widths %v bins %v: binKey %x, from floats %x, pack %x", widths, bins, got, fromX, ref)
			}
		}
	}
}
