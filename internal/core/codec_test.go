package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/wire"
	"keybin2/internal/xrand"
)

func TestModelEncodeDecodeRoundTrip(t *testing.T) {
	spec := synth.AutoMixture(3, 14, 6, 1, xrand.New(80))
	data, _ := spec.Sample(4000, xrand.New(81))
	model, labels, err := Fit(data, Config{Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeModel(model.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.K() != model.K() || decoded.Trial != model.Trial {
		t.Fatalf("k %d/%d trial %d/%d", decoded.K(), model.K(), decoded.Trial, model.Trial)
	}
	if decoded.Assessment.CH != model.Assessment.CH {
		t.Fatalf("CH %v vs %v", decoded.Assessment.CH, model.Assessment.CH)
	}
	// The decoded model must label every training point identically.
	for i := 0; i < data.Rows; i++ {
		got, err := decoded.Assign(data.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != labels[i] {
			t.Fatalf("row %d: decoded %d vs original %d", i, got, labels[i])
		}
	}
}

func TestModelEncodeNoProjection(t *testing.T) {
	spec := synth.AutoMixture(2, 4, 6, 1, xrand.New(83))
	data, _ := spec.Sample(2000, xrand.New(84))
	model, labels, err := Fit(data, Config{Seed: 85, NoProjection: true})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeModel(model.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Projection != nil {
		t.Fatal("no-projection model must decode without projection")
	}
	for i := 0; i < 100; i++ {
		got, err := decoded.Assign(data.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != labels[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

// TestModelEncodePreservesStabilizedLabels pins the v2 wire format against
// the streaming daemon's failure mode: after enough refits the stream's
// label stabilization installs ids that diverge from mass order, and a
// model decoded from a checkpoint (or fetched over /model) must reproduce
// them exactly — not silently fall back to identity ids.
func TestModelEncodePreservesStabilizedLabels(t *testing.T) {
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(95))
	data, _ := spec.Sample(3000, xrand.New(96))
	model, _, err := Fit(data, Config{Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate stabilization: every cluster keeps an id that is neither its
	// mass rank nor contiguous (reversed, offset by 10).
	want := make([]int, model.K())
	for i := range want {
		want[i] = 10 + model.K() - 1 - i
	}
	model.installLabels(want)
	decoded, err := DecodeModel(model.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.installedLabels()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cluster %d: decoded label %d, want %d", i, got[i], want[i])
		}
	}
	for i := 0; i < data.Rows; i++ {
		orig, err := model.Assign(data.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decoded.Assign(data.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if orig != dec {
			t.Fatalf("row %d: decoded model labels %d, original %d", i, dec, orig)
		}
	}
}

// TestDecodeModelV1 keeps pre-label checkpoints readable: stripping the v2
// per-cluster labels and patching the version back to 1 must decode to
// mass-order identity labels.
func TestDecodeModelV1(t *testing.T) {
	spec := synth.AutoMixture(2, 5, 6, 1, xrand.New(98))
	data, _ := spec.Sample(2000, xrand.New(99))
	model, labels, err := Fit(data, Config{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	enc := model.Encode()
	// v2 layout ends with nclusters × (mass u64, segments u32×ndims,
	// label u32) followed by the 28-byte assessment tail; drop each label.
	ndims := len(model.Set.Dims)
	rec := 8 + 4*ndims + 4
	tail := len(enc) - 28
	start := tail - model.K()*rec
	v1 := append([]byte(nil), enc[:start]...)
	for i := 0; i < model.K(); i++ {
		v1 = append(v1, enc[start+i*rec:start+(i+1)*rec-4]...)
	}
	v1 = append(v1, enc[tail:]...)
	v1[4] = 1 // version
	decoded, err := DecodeModel(v1)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range decoded.installedLabels() {
		if l != i {
			t.Fatalf("v1 cluster %d decoded label %d, want identity", i, l)
		}
	}
	for i := 0; i < 200; i++ {
		got, err := decoded.Assign(data.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != labels[i] {
			t.Fatalf("v1 row %d: %d vs %d", i, got, labels[i])
		}
	}
}

func TestDecodeModelCorrupt(t *testing.T) {
	spec := synth.AutoMixture(2, 4, 6, 1, xrand.New(86))
	data, _ := spec.Sample(1000, xrand.New(87))
	model, _, err := Fit(data, Config{Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	enc := model.Encode()
	if _, err := DecodeModel(enc[:10]); err == nil {
		t.Fatal("truncated payload must fail")
	}
	if _, err := DecodeModel([]byte("nope")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := DecodeModel(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	bad := append([]byte(nil), enc...)
	bad[4] = 99 // version
	if _, err := DecodeModel(bad); err == nil {
		t.Fatal("bad version must fail")
	}
}

func TestAssignBatchMatchesFit(t *testing.T) {
	spec := synth.AutoMixture(3, 10, 6, 1, xrand.New(89))
	data, _ := spec.Sample(3000, xrand.New(90))
	model, labels, err := Fit(data, Config{Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := model.AssignBatch(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		if batch[i] != labels[i] {
			t.Fatalf("row %d: batch %d vs fit %d", i, batch[i], labels[i])
		}
	}
	// shape mismatch errors
	if _, err := model.AssignBatch(linalg.NewMatrix(5, 3), 1); err == nil {
		t.Fatal("wrong width must fail")
	}
}

// TestAssignBatchAllocs pins a warm /label query's allocations: the
// labels and the bookkeeping of its blocks (the block store, the worker
// list, the closure), never the projection, bins or keys, which live in
// blocks from blockPool. Projected queries of 1 and 1,024 rows and an unprojected one
// of 1,024 rows each allocate at most 5 times and at most 1 KiB beyond
// their labels' 8 B a row.
func TestAssignBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops a random share of what is Put")
	}
	raw, _ := synth.AutoMixture(4, 16, 5, 1, xrand.New(43)).Sample(4000, xrand.New(44))
	projected, _, err := Fit(raw, Config{Seed: 45, TargetDims: 6})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Fit(raw, Config{Seed: 45, NoProjection: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		model *Model
		rows  int
	}{{"projected/1", projected, 1}, {"projected/1024", projected, 1024}, {"unprojected/1024", plain, 1024}} {
		query := &linalg.Matrix{Rows: c.rows, Cols: raw.Cols, Data: raw.Data[:c.rows*raw.Cols]}
		assign := func() {
			if _, err := c.model.AssignBatch(query, 1); err != nil {
				t.Fatal(err)
			}
		}
		assign() // fill the pools
		const runs = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			assign()
		}
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
		allocs := testing.AllocsPerRun(runs, assign)
		t.Logf("%s: %.0f B in %.0f allocations per query", c.name, perCall, allocs)
		if limit := float64(8*c.rows + 1024); allocs > 5 || perCall > limit {
			t.Errorf("%s: %.0f B in %.0f allocations per query, want at most %.0f B in 5", c.name, perCall, allocs, limit)
		}
	}
}

func TestModelDescribe(t *testing.T) {
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(92))
	data, _ := spec.Sample(2000, xrand.New(93))
	model, _, err := Fit(data, Config{Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	desc := model.Describe()
	if !strings.Contains(desc, "KeyBin2 model") ||
		!strings.Contains(desc, "cluster  0") ||
		!strings.Contains(desc, "dim  0") {
		t.Fatalf("describe:\n%s", desc)
	}
	// Every non-collapsed dimension appears.
	for j := range model.Set.Dims {
		if !strings.Contains(desc, fmt.Sprintf("dim %2d", j)) {
			t.Fatalf("dim %d missing from description", j)
		}
	}
}

// TestDecodersRefuseInfiniteRange: a histogram range of [lo, +Inf] bins
// every point into bin 0; the model, checkpoint and fold decoders refuse
// it (histogram.DecodeSet) rather than install it.
func TestDecodersRefuseInfiniteRange(t *testing.T) {
	cfg := StreamConfig{Config: Config{Seed: 5, Trials: 2}, Dims: 3,
		RawRanges: fixedRanges(3, -2, 2), Period: 200}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runStreamPoints(t, st, synth.AutoMixture(2, 3, 6, 1, xrand.New(50)), 600, 51)
	st.sets[0].Dims[1].Max = math.Inf(1)
	blob, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStream(cfg, blob); err == nil {
		t.Error("checkpoint with an infinite range decoded")
	}
	if _, err := decodeFold(st.fold().encode(), nil); err == nil {
		t.Error("fold with an infinite range decoded")
	}
	model := *st.Model()
	model.Set = st.sets[0]
	if _, err := DecodeModel(model.Encode()); err == nil {
		t.Error("model with an infinite range decoded")
	}
}

// clusterCountAt walks a model encoding to its cluster count and returns
// that field's offset.
func clusterCountAt(t testing.TB, enc []byte) int {
	t.Helper()
	r := wire.NewReader("model", enc)
	r.Bytes(4 + 4) // magic, version
	if r.U8() == 1 {
		rows, cols := r.U32(), r.U32()
		r.Bytes(8 * int(rows) * int(cols))
	}
	r.Frame() // set
	for range r.U32() {
		r.U8()
		r.Bytes(4 * int(r.U32()))
	}
	r.U32() // trial
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return r.Off()
}

// TestDecodeModelProjectionShapeOverflow: rows·cols past the int range
// once slipped past the shape cap as a negative product and panicked in
// makeslice. Magic, version 2, projection flag 1, rows = cols =
// 0xFFFFFFFF, then 64 zero bytes.
func TestDecodeModelProjectionShapeOverflow(t *testing.T) {
	w := wire.Writer{}
	w.Str(modelMagic)
	w.U32(2)
	w.U8(1)
	w.U32(0xFFFFFFFF)
	w.U32(0xFFFFFFFF)
	w.Raw(make([]byte, 64))
	if _, err := DecodeModel(w.Buf); err == nil {
		t.Fatal("a projection shape past the payload decoded")
	}
}

// TestDecodeModelClusterCountClaim: a valid model cut off right after a
// cluster count of 2^20 is refused before anything is sized from the
// count.
func TestDecodeModelClusterCountClaim(t *testing.T) {
	data, _ := synth.AutoMixture(2, 4, 6, 1, xrand.New(86)).Sample(1000, xrand.New(87))
	model, _, err := Fit(data, Config{Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	enc := model.Encode()
	at := clusterCountAt(t, enc)
	hostile := binary.LittleEndian.AppendUint32(bytes.Clone(enc[:at]), 1<<20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = DecodeModel(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a cluster count past the payload decoded")
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(hostile)+1<<14); grew > limit {
		t.Fatalf("refusing %d bytes allocated %d (limit %d)", len(hostile), grew, limit)
	}
}

// TestDecodeModelRefusesForeignSegment: a cluster segment at or past its
// dimension's segment count is refused. Accepted, it spilled into the
// neighbouring fields of the cluster's packed tuple key.
func TestDecodeModelRefusesForeignSegment(t *testing.T) {
	data, _ := synth.AutoMixture(2, 4, 6, 1, xrand.New(86)).Sample(1000, xrand.New(87))
	model, _, err := Fit(data, Config{Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	enc := model.Encode()
	at := clusterCountAt(t, enc) + 4 + 8 // cluster 0's first segment
	for j, p := range model.Parts {
		for _, seg := range []uint32{uint32(p.Segments()), 1 << 20} {
			bad := bytes.Clone(enc)
			binary.LittleEndian.PutUint32(bad[at+4*j:], seg)
			if _, err := DecodeModel(bad); err == nil {
				t.Fatalf("dimension %d of %d segments: segment %d decoded", j, p.Segments(), seg)
			}
		}
	}
}

// unlabelableModels are two model payloads sound byte for byte that no
// AssignBatch can label: model's with a projection of one column fewer
// than its histograms (a projected row ends early), and a one-dimension
// model of depth maxDepth+1 (its bins do not fit the bin kernel's uint16).
func unlabelableModels(t testing.TB, model *Model) [][]byte {
	t.Helper()
	narrow := *model
	narrow.Projection = linalg.NewMatrix(model.Projection.Rows, model.Projection.Cols-1)
	deep, err := histogram.NewSet([]float64{0}, []float64{1}, maxDepth+1)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.Writer{}
	w.Str(modelMagic)
	w.U32(modelVersion)
	w.U8(0) // no projection
	w.Frame(deep.Encode())
	w.U32(1) // one dimension, not collapsed, no cuts
	w.U8(0)
	w.U32(0)
	w.U32(0) // trial
	w.U32(0) // no clusters
	w.F64(0) // assessment
	w.F64(0)
	w.F64(0)
	w.U32(0)
	return [][]byte{narrow.Encode(), w.Buf}
}

// TestDecodeModelRefusesWhatItCannotLabel: a projection whose columns are
// not the histograms' count and histograms deeper than maxDepth are
// refused, each with an error naming it. Both once decoded, and the first
// /label on the shard that installed the first one panicked indexing past
// a projected row.
func TestDecodeModelRefusesWhatItCannotLabel(t *testing.T) {
	data, _ := synth.AutoMixture(2, 4, 6, 1, xrand.New(86)).Sample(300, xrand.New(87))
	model, _, err := Fit(data, Config{Seed: 88, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	cols := model.Projection.Cols
	wants := []string{fmt.Sprintf("%d columns for %d histograms", cols-1, cols), fmt.Sprintf("depth %d", maxDepth+1)}
	for i, b := range unlabelableModels(t, model) {
		if _, err := DecodeModel(b); err == nil || !strings.Contains(err.Error(), wants[i]) {
			t.Fatalf("model %d: DecodeModel error %v, want one naming %q", i, err, wants[i])
		}
	}
}
