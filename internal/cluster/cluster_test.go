package cluster

import (
	"reflect"
	"testing"
)

func TestCanonicalize(t *testing.T) {
	labels := []int{5, 3, 5, Noise, 3, 8}
	got, k := Canonicalize(labels)
	want := []int{0, 1, 0, Noise, 1, 2}
	if !reflect.DeepEqual(got, want) || k != 3 {
		t.Fatalf("got %v k=%d", got, k)
	}
	empty, k := Canonicalize(nil)
	if len(empty) != 0 || k != 0 {
		t.Fatal("empty input")
	}
}

func TestSizesAndNumClusters(t *testing.T) {
	labels := []int{0, 0, 1, Noise, 1, 1}
	s := Sizes(labels)
	if s[0] != 2 || s[1] != 3 || len(s) != 2 {
		t.Fatalf("sizes %v", s)
	}
	if NumClusters(labels) != 2 {
		t.Fatal("NumClusters")
	}
}

func TestContingency(t *testing.T) {
	a := []int{0, 0, 1, 1, Noise}
	b := []int{7, 7, 7, 8, 8}
	c := NewContingency(a, b)
	if c.N != 5 || c.ANoise != 1 || c.BNoise != 0 {
		t.Fatalf("header %+v", c)
	}
	if c.Cells[0][7] != 2 || c.Cells[1][7] != 1 || c.Cells[1][8] != 1 {
		t.Fatalf("cells %v", c.Cells)
	}
	if c.ASizes[0] != 2 || c.BSizes[8] != 2 {
		t.Fatalf("marginals %v %v", c.ASizes, c.BSizes)
	}
}
