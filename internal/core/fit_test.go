package core

import (
	"bytes"
	"slices"
	"testing"

	"keybin2/internal/cluster"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/projection"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func TestFitSeparatedMixture(t *testing.T) {
	spec := synth.AutoMixture(4, 20, 6, 1, xrand.New(1))
	data, truth := spec.Sample(20000, xrand.New(2))
	model, labels, err := Fit(data, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != data.Rows {
		t.Fatalf("labels %d", len(labels))
	}
	if model.K() < 2 {
		t.Fatalf("found %d clusters", model.K())
	}
	p, r, f1 := eval.PrecisionRecallF1(labels, truth)
	t.Logf("k=%d precision=%.3f recall=%.3f f1=%.3f CH=%.1f", model.K(), p, r, f1, model.Assessment.CH)
	if f1 < 0.6 {
		t.Fatalf("f1 %.3f too low (p=%.3f r=%.3f k=%d)", f1, p, r, model.K())
	}
	if p < 0.7 {
		t.Fatalf("precision %.3f too low", p)
	}
}

func TestFitHighDimensional(t *testing.T) {
	if testing.Short() {
		t.Skip("high-dim fit in -short mode")
	}
	spec := synth.AutoMixture(4, 320, 6, 1, xrand.New(4))
	data, truth := spec.Sample(8000, xrand.New(5))
	model, labels, err := Fit(data, Config{Seed: 6, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, f1 := eval.PrecisionRecallF1(labels, truth)
	t.Logf("320-d: k=%d f1=%.3f", model.K(), f1)
	if f1 < 0.6 {
		t.Fatalf("320-d f1 %.3f", f1)
	}
	// Projection must actually have reduced the dimensionality.
	if got := len(model.Set.Dims); got >= 320 {
		t.Fatalf("projected dims %d", got)
	}
}

func TestFitCorrelated2DNeedsRotation(t *testing.T) {
	// Figure 1's workload: axis-aligned binning cannot split the clusters,
	// but with enough random trials a decorrelating rotation appears.
	data, truth := synth.Correlated2D(8000, 3, xrand.New(7))
	model, labels, err := Fit(data, Config{Seed: 8, Trials: 12, TargetDims: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, f1 := eval.PrecisionRecallF1(labels, truth)
	t.Logf("correlated2d: k=%d f1=%.3f trial=%d", model.K(), f1, model.Trial)
	if f1 < 0.55 {
		t.Fatalf("rotated fit f1 %.3f", f1)
	}
}

func TestFitNoProjectionAblation(t *testing.T) {
	// On the same correlated data, the no-projection ablation (KeyBin1
	// behaviour) must do no better than the projected fit — the paper's
	// core motivation.
	data, truth := synth.Correlated2D(8000, 3, xrand.New(7))
	_, rawLabels, err := Fit(data, Config{Seed: 8, NoProjection: true})
	if err != nil {
		t.Fatal(err)
	}
	_, projLabels, err := Fit(data, Config{Seed: 8, Trials: 12, TargetDims: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, rawF1 := eval.PrecisionRecallF1(rawLabels, truth)
	_, _, projF1 := eval.PrecisionRecallF1(projLabels, truth)
	t.Logf("raw f1=%.3f projected f1=%.3f", rawF1, projF1)
	if rawF1 > projF1+0.05 {
		t.Fatalf("no-projection (%.3f) should not beat projection (%.3f) on correlated data", rawF1, projF1)
	}
}

func TestFitDeterministicBySeed(t *testing.T) {
	spec := synth.AutoMixture(3, 10, 6, 1, xrand.New(9))
	data, _ := spec.Sample(3000, xrand.New(10))
	m1, l1, err := Fit(data, Config{Seed: 11, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, l2, err := Fit(data, Config{Seed: 11, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Trial != m2.Trial || m1.K() != m2.K() {
		t.Fatalf("model mismatch: trial %d/%d k %d/%d", m1.Trial, m2.Trial, m1.K(), m2.K())
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("label %d differs", i)
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, _, err := Fit(linalg.NewMatrix(0, 5), Config{}); err == nil {
		t.Fatal("empty data must fail")
	}
	if _, _, err := Fit(linalg.NewMatrix(5, 5), Config{Trials: -1}); err == nil {
		t.Fatal("negative trials must fail")
	}
}

func TestModelAssignNewPoints(t *testing.T) {
	spec := synth.AutoMixture(3, 12, 6, 1, xrand.New(12))
	data, _ := spec.Sample(6000, xrand.New(13))
	model, labels, err := Fit(data, Config{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	// Assign must reproduce the training labels.
	for i := 0; i < 200; i++ {
		got, err := model.Assign(data.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != labels[i] {
			t.Fatalf("row %d: Assign=%d fit label=%d", i, got, labels[i])
		}
	}
	// Fresh points from the same mixture should mostly land in clusters
	// consistent with training points of the same component.
	fresh, freshTruth := spec.Sample(2000, xrand.New(15))
	freshLabels := make([]int, fresh.Rows)
	for i := 0; i < fresh.Rows; i++ {
		l, err := model.Assign(fresh.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		freshLabels[i] = l
	}
	_, _, f1 := eval.PrecisionRecallF1(freshLabels, freshTruth)
	if f1 < 0.5 {
		t.Fatalf("fresh-point f1 %.3f", f1)
	}
	// A far-away point maps to noise.
	far := make([]float64, 12)
	for j := range far {
		far[j] = 1e6
	}
	if l, err := model.Assign(far); err != nil || l != cluster.Noise {
		t.Fatalf("far point label %d err %v", l, err)
	}
	// Wrong dimensionality errors.
	if _, err := model.Assign([]float64{1}); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestFitBoxClusters(t *testing.T) {
	data, truth := synth.Boxes(3, 8, 9000, xrand.New(16))
	model, labels, err := Fit(data, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	_, _, f1 := eval.PrecisionRecallF1(labels, truth)
	t.Logf("boxes: k=%d f1=%.3f", model.K(), f1)
	if f1 < 0.55 {
		t.Fatalf("box-cluster f1 %.3f", f1)
	}
}

// TestPackUnpackSegments: a segment tuple packs into its layout's words
// and unpacks to itself, in one word and across a word boundary (field 1
// of the second layout straddles bits 63 and 64), and its 'S' form is a
// u16 per segment.
func TestPackUnpackSegments(t *testing.T) {
	segs := []int{0, 3, 15, 7}
	for _, widths := range [][]uint{{1, 2, 4, 3}, {4, 4, 8, 54}} {
		layout := newKeyLayout(widths, 2)
		key := make([]uint64, layout.words)
		layout.pack(key, segs)
		if got := layout.unpack(key); !slices.Equal(got, segs) {
			t.Fatalf("widths %v: got %v", widths, got)
		}
		wire := layout.appendWire(nil, key)
		if !bytes.Equal(wire, []byte{0, 0, 3, 0, 15, 0, 7, 0}) {
			t.Fatalf("widths %v: 'S' form %x", widths, wire)
		}
		back := make([]uint64, layout.words)
		if err := layout.fromWire(back, string(wire)); err != nil || !slices.Equal(back, key) {
			t.Fatalf("widths %v: fromWire %x (%v), want %x", widths, back, err, key)
		}
	}
}

// Property: permuting the input rows permutes the labels identically —
// the fit depends on the point set, not on row order. (buildLabels orders
// clusters by mass with deterministic tie-breaks, and histograms are
// order-free.)
func TestFitRowOrderInvariance(t *testing.T) {
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(30))
	data, _ := spec.Sample(2000, xrand.New(31))
	_, labels, err := Fit(data, Config{Seed: 32, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	perm := xrand.New(33).Perm(data.Rows)
	shuffled := linalg.NewMatrix(data.Rows, data.Cols)
	for i, p := range perm {
		copy(shuffled.Row(i), data.Row(p))
	}
	_, shuffledLabels, err := Fit(shuffled, Config{Seed: 32, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if shuffledLabels[i] != labels[p] {
			t.Fatalf("row %d (orig %d): %d vs %d", i, p, shuffledLabels[i], labels[p])
		}
	}
}

// Property: scaling every feature by a positive constant leaves the
// clustering unchanged — keys depend on the ordering of points along each
// projected direction, which is scale-equivariant (ranges scale with the
// data).
func TestFitScaleInvariance(t *testing.T) {
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(34))
	data, _ := spec.Sample(2000, xrand.New(35))
	_, labels, err := Fit(data, Config{Seed: 36, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	scaled := data.Clone()
	scaled.Scale(7.5)
	_, scaledLabels, err := Fit(scaled, Config{Seed: 36, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range labels {
		if labels[i] != scaledLabels[i] {
			diff++
		}
	}
	// Bin boundaries shift by floating-point rounding, so allow a sliver
	// of boundary points to move.
	if diff > len(labels)/100 {
		t.Fatalf("%d/%d labels changed under uniform scaling", diff, len(labels))
	}
}

func TestFitProjectionKinds(t *testing.T) {
	spec := synth.AutoMixture(3, 24, 6, 1, xrand.New(60))
	data, truth := spec.Sample(4000, xrand.New(61))
	for _, kind := range []projection.Kind{projection.Gaussian, projection.Achlioptas, projection.Orthonormal} {
		model, labels, err := Fit(data, Config{Seed: 62, ProjectionKind: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		_, _, f1 := eval.PrecisionRecallF1(labels, truth)
		t.Logf("%v: k=%d f1=%.3f", kind, model.K(), f1)
		if f1 < 0.6 {
			t.Fatalf("%v f1 %.3f", kind, f1)
		}
	}
}

func TestFitDepthOverride(t *testing.T) {
	spec := synth.AutoMixture(2, 8, 6, 1, xrand.New(63))
	data, _ := spec.Sample(3000, xrand.New(64))
	model, _, err := Fit(data, Config{Seed: 65, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range model.Set.Dims {
		if h.Bins() != 16 {
			t.Fatalf("depth override ignored: %d bins", h.Bins())
		}
	}
}

func TestFitMaxClustersCap(t *testing.T) {
	// Many well-separated blobs, cap at 3: only the 3 most massive tuples
	// survive; everything else is noise.
	spec := synth.AutoMixture(8, 6, 8, 0.4, xrand.New(66))
	data, _ := spec.Sample(4000, xrand.New(67))
	model, labels, err := Fit(data, Config{Seed: 68, MaxClusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if model.K() > 3 {
		t.Fatalf("k=%d exceeds cap", model.K())
	}
	for _, l := range labels {
		if l >= 3 {
			t.Fatalf("label %d beyond cap", l)
		}
	}
}

func TestFitSingleResolutionPartitioning(t *testing.T) {
	spec := synth.AutoMixture(3, 10, 6, 1, xrand.New(69))
	data, truth := spec.Sample(3000, xrand.New(70))
	cfg := Config{Seed: 71}
	cfg.Partition.MultiLevels = 1 // disable the multi-resolution search
	_, labels, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, f1 := eval.PrecisionRecallF1(labels, truth); f1 < 0.6 {
		t.Fatalf("single-resolution f1 %.3f", f1)
	}
}
