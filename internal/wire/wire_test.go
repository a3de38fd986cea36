package wire

import (
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.F64(-2.5)
	w.Frame([]byte("abc"))
	w.U64s([]uint64{1, 2})
	w.F64s([]float64{math.Inf(1), 0.5})
	r := NewReader("test", w.Buf)
	if r.U8() != 7 || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 1<<60 || r.F64() != -2.5 {
		t.Fatal("fixed-width values changed")
	}
	if string(r.Frame()) != "abc" {
		t.Fatal("frame changed")
	}
	u, f := make([]uint64, 2), make([]float64, 2)
	r.U64s(u)
	r.F64s(f)
	if u[0] != 1 || u[1] != 2 || !math.IsInf(f[0], 1) || f[1] != 0.5 {
		t.Fatalf("blocks changed: %v %v", u, f)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestStickyError: the first read that does not fit sets the error, and
// every read after it returns zero values without moving.
func TestStickyError(t *testing.T) {
	r := NewReader("test", []byte{1, 2, 3})
	if r.U16() != 0x0201 || r.U32() != 0 || r.Err() == nil {
		t.Fatal("a short read must fail")
	}
	first := r.Err()
	if r.U8() != 0 || r.Bytes(0) != nil || r.Off() != 2 || r.Done() != first {
		t.Fatal("the error is not sticky")
	}
}

// TestCount: a count is refused when the bytes left cannot hold it, for
// every pair of u32s, before anything is sized from it.
func TestCount(t *testing.T) {
	r := NewReader("test", make([]byte, 16))
	if n := r.Count(4, 4); n != 4 || r.Err() != nil {
		t.Fatalf("4 × 4 bytes in 16: %d, %v", n, r.Err())
	}
	for _, c := range [][2]uint32{{5, 4}, {math.MaxUint32, math.MaxUint32}, {math.MaxUint32, 1}, {17, 0}, {1, math.MaxUint32}} {
		r := NewReader("test", make([]byte, 16))
		if n := r.Count(c[0], int(c[1])); n != 0 || r.Err() == nil {
			t.Fatalf("count %d × %d bytes in 16 accepted", c[0], c[1])
		}
	}
}

func TestDoneRefusesTrailingBytes(t *testing.T) {
	r := NewReader("test", []byte{1, 2})
	r.U8()
	if r.Done() == nil {
		t.Fatal("a trailing byte must be refused")
	}
}

// TestBytesCapped: appending to a returned slice never overwrites the
// bytes after it.
func TestBytesCapped(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	r := NewReader("test", buf)
	b := r.Bytes(2)
	_ = append(b, 9)
	if buf[2] != 3 {
		t.Fatal("append wrote into the payload")
	}
}
