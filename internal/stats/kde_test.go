package stats

import (
	"math/rand"
	"testing"
)

func TestKDEBinnedUnimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	centers, counts := binGaussian(rng, 10000, 50, 0, 1, 0)
	dens := KDEBinned(centers, counts)
	peak := ArgMax(dens)
	// Peak should be near the center bin (x≈0).
	if centers[peak] < -0.5 || centers[peak] > 0.5 {
		t.Fatalf("KDE peak at %v", centers[peak])
	}
	// Density must be nonnegative and decay toward the edges.
	for i, d := range dens {
		if d < 0 {
			t.Fatalf("negative density at %d", i)
		}
	}
	if dens[0] > dens[peak]/10 || dens[len(dens)-1] > dens[peak]/10 {
		t.Fatal("tails should be far below the peak")
	}
}

func TestKDEBinnedBimodalValley(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	centers, counts := binGaussian(rng, 20000, 80, 0, 1, 10)
	dens := KDEBinned(centers, counts)
	// Find the valley between the two modes: density near x=5 should be
	// well below both mode densities.
	var valleyIdx int
	for i, c := range centers {
		if c > 4.5 && c < 5.5 {
			valleyIdx = i
			break
		}
	}
	peak := dens[ArgMax(dens)]
	if dens[valleyIdx] > peak/3 {
		t.Fatalf("valley density %v vs peak %v", dens[valleyIdx], peak)
	}
}

func TestKDEDegenerate(t *testing.T) {
	out := KDEBinned([]float64{1, 2}, []uint64{0, 0})
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("empty histogram should give zero density")
	}
	// Zero spread: falls back to raw counts.
	out = KDEBinned([]float64{1, 2}, []uint64{5, 0})
	if out[0] != 5 || out[1] != 0 {
		t.Fatalf("degenerate spread: %v", out)
	}
}

func TestSilvermanBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	centers, counts := binGaussian(rng, 5000, 50, 0, 2, 0)
	h := SilvermanBandwidth(centers, counts)
	if h <= 0 || h > 2 {
		t.Fatalf("bandwidth %v out of plausible range", h)
	}
	if SilvermanBandwidth(nil, nil) != 0 {
		t.Fatal("empty bandwidth")
	}
}
