package stats

import (
	"math"
	"math/rand"
	"testing"
)

// The partitioner's kernels (MovingAverageCounts, LocalSlopes, LooksNormal)
// skip work their references (MovingAverage, LocalSlopeAt, KSNormalBinned)
// do, and must still return the same bits. These property tests compare
// them on seeded random inputs with math.Float64bits; CI runs them again
// built for GOAMD64=v3, where a compiler may contract a + b*c into FMA.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestBitIdenticalMovingAverageCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		counts := make([]uint64, n)
		v := make([]float64, n)
		scale := []int64{2, 50, 1 << 20}[n%3]
		for i := range counts {
			if rng.Intn(4) > 0 { // leave runs of empty bins
				counts[i] = uint64(rng.Int63n(scale))
			}
			v[i] = float64(counts[i])
		}
		for width := 0; width <= 33; width++ {
			want := MovingAverage(v, width)
			got := MovingAverageCounts(counts, width)
			if len(got) != len(want) {
				t.Fatalf("len %d width %d: %d values, want %d", n, width, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("len %d width %d index %d: %v, MovingAverage %v", n, width, i, got[i], want[i])
				}
			}
		}
	}
	// Counts past 2^53 leave the exact range and take the reference.
	big := []uint64{1 << 53, 3, 1<<53 + 1, 7}
	v := []float64{1 << 53, 3, 1<<53 + 1, 7}
	want, got := MovingAverage(v, 3), MovingAverageCounts(big, 3)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("past 2^53, index %d: %v, MovingAverage %v", i, got[i], want[i])
		}
	}
}

func TestBitIdenticalLocalSlopes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 300; n++ {
		v := make([]float64, n)
		for i := range v {
			switch n % 3 {
			case 0: // a smoothed density: fractional, non-negative
				v[i] = rng.Float64() * 1e4
			case 1: // a slope curve: signed
				v[i] = rng.NormFloat64() * 300
			default: // integer counts
				v[i] = float64(rng.Intn(1000))
			}
		}
		for width := 0; width <= 33; width++ {
			got := LocalSlopes(v, width)
			if len(got) != n {
				t.Fatalf("len %d width %d: %d slopes", n, width, len(got))
			}
			for i := range v {
				if want := LocalSlopeAt(v, width, i); !sameBits(got[i], want) {
					t.Fatalf("len %d width %d index %d: %v, LocalSlopeAt %v", n, width, i, got[i], want)
				}
			}
		}
	}
}

func TestBitIdenticalLooksNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type hist struct {
		centers []float64
		counts  []uint64
	}
	var cases []hist
	for _, nb := range []int{1, 2, 5, 64, 283} {
		centers := make([]float64, nb)
		for i := range centers {
			centers[i] = -3 + 6*(float64(i)+0.5)/float64(nb)
		}
		cases = append(cases,
			hist{centers, make([]uint64, nb)}, // empty: n == 0
			hist{centers, oneBin(nb, rng)})    // std 0
		for k := 0; k < 20; k++ {
			counts := make([]uint64, nb)
			switch k % 3 {
			case 0: // near-Gaussian
				c, g := binGaussian(rng, 200+rng.Intn(5000), nb, 0, 1, 0)
				centers, counts = c, g
			case 1: // bimodal
				c, g := binGaussian(rng, 200+rng.Intn(5000), nb, 0, 1, 4)
				centers, counts = c, g
			default: // arbitrary
				for i := range counts {
					counts[i] = uint64(rng.Intn(50))
				}
			}
			cases = append(cases, hist{centers, counts})
		}
	}
	verdicts := map[bool]int{}
	for ci, h := range cases {
		for _, relax := range []float64{0.5, 1, 5, 0, -1} {
			d, n := KSNormalBinned(h.centers, h.counts)
			want := n == 0 || d <= LillieforsCritical(n)*relax
			if got := LooksNormal(h.centers, h.counts, relax); got != want {
				t.Fatalf("case %d relax %v: LooksNormal %v, KSNormalBinned says %v (d %v, n %d)", ci, relax, got, want, d, n)
			}
			verdicts[want]++
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("cases reach only one verdict: %v", verdicts)
	}
}

func oneBin(nb int, rng *rand.Rand) []uint64 {
	counts := make([]uint64, nb)
	counts[rng.Intn(nb)] = uint64(1 + rng.Intn(100))
	return counts
}
