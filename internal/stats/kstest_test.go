package stats

import (
	"math/rand"
	"testing"
)

// binGaussian builds a histogram of n Gaussian samples over nb bins.
func binGaussian(rng *rand.Rand, n, nb int, mu, sigma float64, bimodalGap float64) ([]float64, []uint64) {
	lo, hi := mu-5*sigma-bimodalGap, mu+5*sigma+bimodalGap
	centers := make([]float64, nb)
	counts := make([]uint64, nb)
	w := (hi - lo) / float64(nb)
	for i := range centers {
		centers[i] = lo + (float64(i)+0.5)*w
	}
	for i := 0; i < n; i++ {
		x := mu + sigma*rng.NormFloat64()
		if bimodalGap > 0 && i%2 == 0 {
			x += bimodalGap
		}
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nb {
			b = nb - 1
		}
		counts[b]++
	}
	return centers, counts
}

func TestKSNormalAcceptsGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers, counts := binGaussian(rng, 20000, 64, 0, 1, 0)
	d, n := KSNormalBinned(centers, counts)
	if n != 20000 {
		t.Fatalf("n=%d", n)
	}
	// Binned KS against fitted normal should be small for true Gaussian.
	if d > 0.05 {
		t.Fatalf("KS distance %v too large for Gaussian data", d)
	}
	if !LooksNormal(centers, counts, 5) {
		t.Fatal("Gaussian histogram should look normal with relaxed threshold")
	}
}

func TestKSNormalRejectsBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	centers, counts := binGaussian(rng, 20000, 64, 0, 1, 10)
	d, _ := KSNormalBinned(centers, counts)
	if d < 0.1 {
		t.Fatalf("KS distance %v too small for strongly bimodal data", d)
	}
	if LooksNormal(centers, counts, 1) {
		t.Fatal("bimodal histogram must not look normal")
	}
}

func TestKSDegenerate(t *testing.T) {
	d, n := KSNormalBinned([]float64{1, 2}, []uint64{0, 0})
	if d != 0 || n != 0 {
		t.Fatalf("empty histogram: d=%v n=%d", d, n)
	}
	// All mass in one bin: zero std => maximally non-normal.
	d, _ = KSNormalBinned([]float64{1, 2}, []uint64{100, 0})
	if d != 1 {
		t.Fatalf("single-bin d=%v want 1", d)
	}
	if !LooksNormal(nil, nil, 1) {
		t.Fatal("empty dimension should be collapsible")
	}
}

func TestLillieforsCriticalShrinks(t *testing.T) {
	if LillieforsCritical(10) <= LillieforsCritical(1000) {
		t.Fatal("critical value must shrink with n")
	}
	if c := LillieforsCritical(2); c != 0.375 {
		t.Fatalf("small-n critical %v", c)
	}
	// Sanity: for n=100 the 5% critical value is near 0.0886.
	c := LillieforsCritical(100)
	if c < 0.08 || c > 0.095 {
		t.Fatalf("n=100 critical %v", c)
	}
}
