package histogram

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func makeSet(t *testing.T) *Set {
	t.Helper()
	s, err := NewSet([]float64{0, -1}, []float64{10, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet([]float64{0}, []float64{1, 2}, 3); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestAddPointAndTotal(t *testing.T) {
	s := makeSet(t)
	s.AddPoint([]float64{5, 0})
	s.AddPoint([]float64{1, -0.9})
	if s.Total() != 2 {
		t.Fatalf("total %d", s.Total())
	}
	if s.Dims[0].Total != 2 || s.Dims[1].Total != 2 {
		t.Fatal("per-dim totals")
	}
	empty := &Set{}
	if empty.Total() != 0 {
		t.Fatal("empty set total")
	}
}

func TestAddMatrix(t *testing.T) {
	s := makeSet(t)
	data := []float64{
		5, 0,
		1, -0.9,
		9, 0.9,
	}
	s.AddMatrix(data, 0, 3)
	if s.Total() != 3 {
		t.Fatalf("total %d", s.Total())
	}
	s2 := makeSet(t)
	s2.AddMatrix(data, 1, 2) // just the middle row
	if s2.Total() != 1 || s2.Dims[0].Counts[s2.Dims[0].Bin(1)] != 1 {
		t.Fatal("row slicing")
	}
}

func TestSetMerge(t *testing.T) {
	a, b := makeSet(t), makeSet(t)
	a.AddPoint([]float64{5, 0})
	b.AddPoint([]float64{5, 0})
	b.AddPoint([]float64{2, 0.5})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 3 {
		t.Fatalf("total %d", a.Total())
	}
	c, _ := NewSet([]float64{0}, []float64{1}, 4)
	if err := a.Merge(c); err == nil {
		t.Fatal("dim mismatch must fail")
	}
}

func TestSetCloneReset(t *testing.T) {
	s := makeSet(t)
	s.AddPoint([]float64{5, 0})
	c := s.Clone()
	c.AddPoint([]float64{5, 0})
	if s.Total() != 1 || c.Total() != 2 {
		t.Fatal("clone independence")
	}
	s.Reset()
	if s.Total() != 0 {
		t.Fatal("reset")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := makeSet(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		s.AddPoint([]float64{rng.Float64() * 10, rng.Float64()*2 - 1})
	}
	got, err := DecodeSet(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dims) != 2 {
		t.Fatalf("dims %d", len(got.Dims))
	}
	for j := range s.Dims {
		if !reflect.DeepEqual(s.Dims[j].Counts, got.Dims[j].Counts) {
			t.Fatalf("dim %d counts differ", j)
		}
		if s.Dims[j].Min != got.Dims[j].Min || s.Dims[j].Max != got.Dims[j].Max ||
			s.Dims[j].Total != got.Dims[j].Total || s.Dims[j].Depth != got.Dims[j].Depth {
			t.Fatalf("dim %d metadata differs", j)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeSet([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload must fail")
	}
	s := makeSet(t)
	enc := s.Encode()
	if _, err := DecodeSet(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated payload must fail")
	}
	// corrupt the depth field
	bad := append([]byte(nil), enc...)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := DecodeSet(bad); err == nil {
		t.Fatal("absurd depth must fail")
	}
}

// TestDecodeSetRefusesNonFiniteRanges: a decoded range must be finite,
// non-empty and no wider than the largest float64. [0, +Inf] once decoded,
// and from there reached the model, checkpoint and fold decoders, whose
// own check (Max > Min) let it through.
func TestDecodeSetRefusesNonFiniteRanges(t *testing.T) {
	good := makeSet(t).Encode()
	if _, err := DecodeSet(good); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{
		{0, math.Inf(1)}, {math.Inf(-1), 0}, {math.Inf(-1), math.Inf(1)},
		{math.NaN(), 1}, {0, math.NaN()}, {-1e308, 1e308}, {1, 1}, {2, 1},
	} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r[0]))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r[1]))
		if _, err := DecodeSet(b); err == nil {
			t.Errorf("range %v decoded", r)
		}
	}
}

// TestNewSetBuildsOnlyWhatDecodes: NewSet refuses every range DecodeSet
// refuses, so no set it builds encodes to bytes that fail to read back. New
// widens a point or inverted range by ±0.5, which leaves 1e300 a point.
func TestNewSetBuildsOnlyWhatDecodes(t *testing.T) {
	for _, c := range []struct {
		r  [2]float64
		ok bool
	}{
		{[2]float64{0, math.Inf(1)}, false}, {[2]float64{math.Inf(-1), 0}, false},
		{[2]float64{math.Inf(-1), math.Inf(1)}, false}, {[2]float64{math.NaN(), 1}, false},
		{[2]float64{-1e308, 1e308}, false}, {[2]float64{1e300, 1e300}, false},
		{[2]float64{1, 1}, true}, {[2]float64{2, 1}, true}, {[2]float64{-12, 12}, true},
	} {
		s, err := NewSet([]float64{-1, c.r[0]}, []float64{1, c.r[1]}, 4)
		if (err == nil) != c.ok {
			t.Errorf("NewSet over %v: %v, want ok=%v", c.r, err, c.ok)
			continue
		}
		if err == nil {
			if _, err := DecodeSet(s.Encode()); err != nil {
				t.Errorf("NewSet over %v built a set whose bytes do not decode: %v", c.r, err)
			}
		}
	}
}

func TestCheckRange(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		names  string // what the error must name; "" = valid
	}{
		{-12, 12, ""}, {3, 3, ""}, {-1e307, 1e307, ""},
		{math.NaN(), 1, "NaN"}, {0, math.Inf(1), "+Inf"}, {math.Inf(-1), 0, "-Inf"},
		{-1e308, 1e308, "1e+308"}, {2, 1, "reversed"},
	} {
		err := CheckRange(c.lo, c.hi)
		if (err == nil) != (c.names == "") || err != nil && !strings.Contains(err.Error(), c.names) {
			t.Errorf("CheckRange(%v, %v) = %v, want an error naming %q", c.lo, c.hi, err, c.names)
		}
	}
}
