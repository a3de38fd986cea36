package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("bad elements: %v", m)
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged rows: got %v, want ErrShape", err)
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatalf("empty input: %v %v", empty, err)
	}
}

func TestAtSetRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatal("Set/At mismatch")
	}
	m.Row(0)[1] = 3 // Row is a view
	if m.At(0, 1) != 3 {
		t.Fatal("Row must be a view")
	}
	col := m.Col(2)
	col[0] = 99 // Col is a copy
	if m.At(0, 2) == 99 {
		t.Fatal("Col must be a copy")
	}
	m.SetCol(2, []float64{10, 11})
	if m.At(0, 2) != 10 || m.At(1, 2) != 11 {
		t.Fatal("SetCol failed")
	}
}

func TestMulSmall(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := Mul(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := Mul(nil, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
	dst := NewMatrix(1, 1)
	c := NewMatrix(3, 2)
	if _, err := Mul(dst, a, c); !errors.Is(err, ErrShape) {
		t.Fatalf("bad dst: got %v, want ErrShape", err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(5, 5)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
		for j := 0; j < 5; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	got, _ := Mul(nil, a, id)
	if !Equal(got, a, 1e-12) {
		t.Fatal("A×I != A")
	}
	got2, _ := Mul(nil, id, a)
	if !Equal(got2, a, 1e-12) {
		t.Fatal("I×A != A")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("bad transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("bad transpose values %v", mt)
	}
	if !Equal(mt.T(), m, 0) {
		t.Fatal("double transpose should be identity")
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone must not share storage")
	}
}

func TestScaleAndFrobenius(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("norm %v want 5", got)
	}
	m.Scale(2)
	if m.At(0, 1) != 8 {
		t.Fatal("Scale failed")
	}
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := NewMatrix(r, k), NewMatrix(k, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		ab, _ := Mul(nil, a, b)
		btat, _ := Mul(nil, b.T(), a.T())
		return Equal(ab.T(), btat, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := FromRows([][]float64{{1, 2}})
	if s := small.String(); s == "" {
		t.Fatal("empty String for small matrix")
	}
	big := NewMatrix(20, 20)
	if s := big.String(); s != "Matrix(20x20)" {
		t.Fatalf("large matrix should be elided, got %q", s)
	}
}
