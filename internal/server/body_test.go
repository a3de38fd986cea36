package server

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"
)

// failReader fails the test on any read: a refusal by declared length must
// come before the body is touched.
type failReader struct{ t *testing.T }

func (f failReader) Read([]byte) (int, error) {
	f.t.Fatal("body read after its declared length was refused")
	return 0, io.EOF
}

// onlyReader hides bytes.Reader's other methods, as a chunked request body
// does.
type onlyReader struct{ io.Reader }

// TestReadBodyBounds holds ReadBody to its limit with a small one: a
// declared length over it is refused before any read, an undeclared one at
// the first byte past it, both naming the limit; at the limit both read
// whole, and a body shorter than its declared length is an error.
func TestReadBodyBounds(t *testing.T) {
	const limit = 100
	body := bytes.Repeat([]byte("kb2"), 40)[:limit]

	if _, err := ReadBody(failReader{t}, limit+1, limit); !errors.Is(err, ErrBodyTooLarge) || !strings.Contains(err.Error(), "limit 100") {
		t.Fatalf("declared %d over limit %d: %v, want ErrBodyTooLarge naming the limit", limit+1, limit, err)
	}
	over := append(append([]byte(nil), body...), 'x')
	if _, err := ReadBody(onlyReader{bytes.NewReader(over)}, -1, limit); !errors.Is(err, ErrBodyTooLarge) || !strings.Contains(err.Error(), "100 bytes") {
		t.Fatalf("undeclared %d bytes over limit %d: %v, want ErrBodyTooLarge naming the limit", len(over), limit, err)
	}
	for _, length := range []int64{limit, -1} {
		bb, err := ReadBody(onlyReader{bytes.NewReader(body)}, length, limit)
		if err != nil {
			t.Fatalf("length %d at the limit: %v", length, err)
		}
		if !bytes.Equal(bb.Bytes(), body) {
			t.Fatalf("length %d: read %q, want %q", length, bb.Bytes(), body)
		}
		// The KB2B float block starts 12 bytes in; the pad puts it on an
		// 8-byte boundary, which is what lets the batch decode alias it.
		if p := uintptr(unsafe.Pointer(&bb.Bytes()[batchHeaderSize])); p%8 != 0 {
			t.Fatalf("length %d: float block at %#x, not 8-byte aligned", length, p)
		}
		bb.Release()
	}
	if _, err := ReadBody(bytes.NewReader(body[:10]), 20, limit); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("10 of 20 declared bytes: %v, want io.ErrUnexpectedEOF", err)
	}
	bb, err := ReadBody(bytes.NewReader(nil), 0, limit)
	if err != nil {
		t.Fatalf("empty body: %v", err)
	}
	if len(bb.Bytes()) != 0 {
		t.Fatalf("empty body read as %d bytes", len(bb.Bytes()))
	}
	bb.Release()
}

// TestAckBytes pins the /ingest 202 body, plain, duplicate and
// epoch-bearing, byte for byte: the bytes encoding/json gives a map of the
// same keys, which is what clients have always read.
func TestAckBytes(t *testing.T) {
	for _, c := range []struct {
		epoch     int64
		ack       ack
		header    string
		wantBytes string
	}{
		{0, ack{Queued: 2048, Seq: 17}, "", `{"queued":2048,"seq":17}` + "\n"},
		{0, ack{Duplicate: true}, "", `{"duplicate":true,"queued":0}` + "\n"},
		{3, ack{Queued: 2048, Seq: 17}, "3", `{"epoch":3,"queued":2048,"seq":17}` + "\n"},
		{3, ack{Duplicate: true}, "3", `{"duplicate":true,"epoch":3,"queued":0}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		writeAck(rec, &role{epoch: c.epoch}, c.ack)
		if rec.Code != 202 || rec.Header().Get("X-KB2-Epoch") != c.header || rec.Body.String() != c.wantBytes {
			t.Fatalf("ack %+v at epoch %d: %d %q %q, want 202 %q %q",
				c.ack, c.epoch, rec.Code, rec.Header().Get("X-KB2-Epoch"), rec.Body.String(), c.header, c.wantBytes)
		}
	}
}
