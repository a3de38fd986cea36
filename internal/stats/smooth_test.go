package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMovingAverageConstant(t *testing.T) {
	v := []float64{3, 3, 3, 3, 3}
	got := MovingAverage(v, 3)
	for i, x := range got {
		if x != 3 {
			t.Fatalf("index %d = %v", i, x)
		}
	}
}

func TestMovingAverageWidths(t *testing.T) {
	v := []float64{0, 10, 0, 10, 0}
	// width 1 is identity
	got := MovingAverage(v, 1)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("width1 not identity at %d", i)
		}
	}
	// even width rounds up to odd (2 -> 3)
	w2 := MovingAverage(v, 2)
	w3 := MovingAverage(v, 3)
	for i := range v {
		if w2[i] != w3[i] {
			t.Fatal("even width should behave like next odd width")
		}
	}
	// interior of width 3: average of neighbors
	if w3[1] != 10.0/3 {
		t.Fatalf("w3[1]=%v", w3[1])
	}
	// edge uses partial window
	if w3[0] != 5 {
		t.Fatalf("w3[0]=%v", w3[0])
	}
}

// Property: smoothing preserves bounds (output within [min,max] of input).
func TestMovingAverageBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		v := make([]float64, n)
		min, max := math.Inf(1), math.Inf(-1)
		for i := range v {
			v[i] = rng.NormFloat64()
			min = math.Min(min, v[i])
			max = math.Max(max, v[i])
		}
		for _, w := range []int{1, 3, 5, 9} {
			for _, x := range MovingAverage(v, w) {
				if x < min-1e-9 || x > max+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSlopesOnLine(t *testing.T) {
	// y = 2x + 1 should have slope 2 everywhere, any window.
	v := make([]float64, 20)
	for i := range v {
		v[i] = 2*float64(i) + 1
	}
	for _, w := range []int{3, 5, 7} {
		for i, s := range LocalSlopes(v, w) {
			if !almost(s, 2, 1e-9) {
				t.Fatalf("width %d index %d slope %v", w, i, s)
			}
		}
	}
}

func TestLocalSlopesSignsOnParabola(t *testing.T) {
	// y = (x-10)^2: slope negative left of 10, positive right of it.
	v := make([]float64, 21)
	for i := range v {
		d := float64(i - 10)
		v[i] = d * d
	}
	s := LocalSlopes(v, 5)
	if s[3] >= 0 || s[17] <= 0 {
		t.Fatalf("slopes %v", s)
	}
	if math.Abs(s[10]) > 1e-9 {
		t.Fatalf("vertex slope %v", s[10])
	}
}

func TestZeroCrossings(t *testing.T) {
	v := []float64{-2, -1, 1, 2, -1, -3, 2}
	up := ZeroCrossings(v, 1)
	down := ZeroCrossings(v, -1)
	both := ZeroCrossings(v, 0)
	if len(up) != 2 || up[0] != 1 || up[1] != 5 {
		t.Fatalf("up=%v", up)
	}
	if len(down) != 1 || down[0] != 3 {
		t.Fatalf("down=%v", down)
	}
	if len(both) != 3 {
		t.Fatalf("both=%v", both)
	}
}

func TestArgMaxMin(t *testing.T) {
	v := []float64{3, 9, 2, 9}
	if ArgMax(v) != 1 {
		t.Fatal("ArgMax first occurrence")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("empty input")
	}
}

func TestRelativeDip(t *testing.T) {
	// Uneven masses: tall peak and small bump with a deep valley between.
	v := []float64{0, 100, 0.5, 8, 0}
	if d := RelativeDip(v, 2); d < 0.9 {
		t.Fatalf("deep valley relative dip %v", d)
	}
	// Flat wiggle next to the small mode.
	w := []float64{0, 100, 0, 8, 7.5, 8, 0}
	if d := RelativeDip(w, 4); d > 0.1 {
		t.Fatalf("wiggle relative dip %v", d)
	}
	if RelativeDip(nil, 0) != 0 || RelativeDip(v, -1) != 0 {
		t.Fatal("degenerate inputs")
	}
	// Zero flanks give zero.
	if RelativeDip([]float64{0, 0, 0}, 1) != 0 {
		t.Fatal("zero flanks")
	}
}
