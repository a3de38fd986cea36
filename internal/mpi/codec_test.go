package mpi

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFloat64sRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		got, err := DecodeFloat64s(EncodeFloat64s(v))
		if err != nil {
			return false
		}
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if v[i] != got[i] && !(math.IsNaN(v[i]) && math.IsNaN(got[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64sRoundTrip(t *testing.T) {
	f := func(v []uint64) bool {
		got, err := DecodeUint64s(EncodeUint64s(v))
		return err == nil && (len(v) == 0 && len(got) == 0 || reflect.DeepEqual(v, got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBadLength(t *testing.T) {
	if _, err := DecodeFloat64s(make([]byte, 7)); err == nil {
		t.Fatal("length 7 should fail")
	}
	if _, err := DecodeUint64s(make([]byte, 9)); err == nil {
		t.Fatal("length 9 should fail")
	}
}

func TestBytesFrames(t *testing.T) {
	var buf []byte
	frames := [][]byte{[]byte("a"), {}, []byte("hello world")}
	for _, f := range frames {
		buf = AppendBytesFrame(buf, f)
	}
	got, err := SplitBytesFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "a" || len(got[1]) != 0 || string(got[2]) != "hello world" {
		t.Fatalf("frames %q", got)
	}
}

func TestSplitBytesFramesCorrupt(t *testing.T) {
	if _, err := SplitBytesFrames([]byte{1, 2}); err == nil {
		t.Fatal("truncated header should fail")
	}
	bad := AppendBytesFrame(nil, []byte("xy"))
	bad = bad[:len(bad)-1] // chop payload
	if _, err := SplitBytesFrames(bad); err == nil {
		t.Fatal("truncated payload should fail")
	}
}
