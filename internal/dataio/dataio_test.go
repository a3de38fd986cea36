package dataio

import (
	"bytes"
	"strings"
	"testing"

	"keybin2/internal/linalg"
)

func TestReadMatrixWithHeader(t *testing.T) {
	in := "x,y\n1,2\n3,4\n"
	m, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("%v", m)
	}
}

func TestReadMatrixNoHeader(t *testing.T) {
	m, err := ReadMatrix(strings.NewReader("1.5,2\n-3,4e2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1.5 || m.At(1, 1) != 400 {
		t.Fatalf("%v", m)
	}
}

func TestReadMatrixErrors(t *testing.T) {
	if _, err := ReadMatrix(strings.NewReader("")); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := ReadMatrix(strings.NewReader("x,y\n")); err == nil {
		t.Fatal("header-only must fail")
	}
	if _, err := ReadMatrix(strings.NewReader("1,2\nfoo,4\n")); err == nil {
		t.Fatal("non-numeric mid-file must fail")
	}
	if _, err := ReadMatrix(strings.NewReader("1,2\n3\n")); err == nil {
		t.Fatal("ragged rows must fail")
	}
}

func TestRoundTripMatrix(t *testing.T) {
	m, _ := linalg.FromRows([][]float64{{1.25, -2}, {3, 4.5}})
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.Equal(m, got, 0) {
		t.Fatalf("round trip %v vs %v", m, got)
	}
}

func TestRoundTripLabeled(t *testing.T) {
	m, _ := linalg.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	labels := []int{0, 1, -1}
	var buf bytes.Buffer
	if err := WriteLabeled(&buf, m, labels, []string{"a", "b", "label"}); err != nil {
		t.Fatal(err)
	}
	gm, gl, err := ReadLabeled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.Equal(m, gm, 0) {
		t.Fatal("features differ")
	}
	for i := range labels {
		if gl[i] != labels[i] {
			t.Fatalf("labels %v", gl)
		}
	}
}

func TestWriteLabeledValidation(t *testing.T) {
	m := linalg.NewMatrix(2, 2)
	if err := WriteLabeled(&bytes.Buffer{}, m, []int{0}, nil); err == nil {
		t.Fatal("label count mismatch must fail")
	}
}

func TestReadLabeledNeedsTwoColumns(t *testing.T) {
	if _, _, err := ReadLabeled(strings.NewReader("1\n2\n")); err == nil {
		t.Fatal("single column labeled data must fail")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/data.csv"
	m, _ := linalg.FromRows([][]float64{{1, 2}, {3, 4}})
	if err := WriteLabeledFile(path, m, []int{7, 8}, nil); err != nil {
		t.Fatal(err)
	}
	gm, gl, err := ReadLabeledFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Rows != 2 || gl[1] != 8 {
		t.Fatalf("%v %v", gm, gl)
	}
	if _, err := ReadMatrixFile(dir + "/missing.csv"); err == nil {
		t.Fatal("missing file must fail")
	}
	if _, err := ReadMatrixFile(path); err != nil {
		t.Fatal(err)
	}
}
