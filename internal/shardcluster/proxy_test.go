//go:build unix

package shardcluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// The router's body handling, against stub shards: each proxied body is
// read once into a pooled buffer, resent unchanged on failover, and
// handed back to the pool only after the transport has closed it.

func stubRouter(t *testing.T, shards ...string) *Router {
	t.Helper()
	r, err := New(Config{Shards: shards, Stream: internalTestStream()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// filled is n bytes that differ per tag and per offset, so a byte from
// another body, or from elsewhere in this one, shows.
func filled(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i) ^ byte(i>>8) ^ byte(i>>16)
	}
	return b
}

// ingestReq is a POST /ingest through the router's handler with the given
// body and producer; length -1 makes the body undeclared (chunked).
func ingestReq(body io.Reader, length int64, producer string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/ingest", body)
	req.ContentLength = length
	req.Header.Set("X-Producer", producer)
	return req
}

// sink is a ResponseWriter that keeps the status and drops the body; its
// header map is reused, so it allocates nothing per request.
type sink struct {
	h    http.Header
	code int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(p []byte) (int, error) { return len(p), nil }
func (s *sink) WriteHeader(code int)        { s.code = code }

// TestRouterIngestAllocs pins what the router allocates per proxied
// 128 KB ingest batch, through Router.Handler against a stub shard, the
// stub's own server side and the outbound transport included: well under
// one body; a read that grows a slice to the body's size allocates
// several bodies' worth per batch. Most of what is left is net/http's: it
// copies a body of a type it does not know through a 32 KiB buffer of its
// own, and a body that signals its Close is one.
func TestRouterIngestAllocs(t *testing.T) {
	body := filled(12+4096*4*8, 1) // a 4096-point, 4-dim KB2B batch's size
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer stub.Close()
	h := stubRouter(t, stub.URL).Handler()
	const warm, n = 16, 64
	reqs := make([]*http.Request, warm+n)
	for i := range reqs {
		reqs[i] = ingestReq(bytes.NewReader(body), int64(len(body)), "p")
	}
	w := &sink{h: http.Header{}}
	for _, req := range reqs[:warm] {
		h.ServeHTTP(w, req)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs[warm:] {
		if h.ServeHTTP(w, req); w.code != http.StatusAccepted {
			t.Fatalf("proxied ingest: %d", w.code)
		}
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B allocated per %d B batch", perBatch, len(body))
	if perBatch > 48<<10 && !raceEnabled {
		t.Fatalf("%.0f B allocated per proxied %d B batch, want < 48 KiB", perBatch, len(body))
	}
}

// TestRouterEarlyAnswerKeepsBodyIntact has a shard answer 202 before it
// has read the body, so the router's handler can return while the
// transport still holds the body. The next batch through the router then
// takes a buffer from the body pool, and the shard reads the first body
// and compares what arrived byte for byte with what the producer sent.
// A prompt reader gets the whole body. From a slow one the transport
// parts after 50 ms, when the handler has long returned: a buffer handed
// back to the pool then would be refilled by the next batch after the
// transport's reads, with nothing ordering the two, which -race reports.
func TestRouterEarlyAnswerKeepsBodyIntact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pause time.Duration // between 8 KiB reads
	}{{"prompt", 0}, {"slow", 2 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) { earlyAnswer(t, tc.pause) })
	}
}

func earlyAnswer(t *testing.T, pause time.Duration) {
	// Both ends of every connection keep small kernel buffers (see
	// smallBuffers), so most of the body is still to be written when the
	// answer arrives.
	const size = 1 << 20
	early := filled(size, 0xE1)
	type outcome struct {
		n   int
		err error
	}
	got := make(chan outcome, 1)
	stub := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Producer") != "early" {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusAccepted)
			return
		}
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			got <- outcome{err: err}
			return
		}
		// A complete answer with a body: Do returns on it at once.
		w.Header().Set("Content-Length", "6")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "early\n")
		rc.Flush()
		buf := make([]byte, size)
		n := 0
		var err error
		for err == nil && n < size {
			var m int
			m, err = r.Body.Read(buf[n:min(n+8<<10, size)])
			n += m
			time.Sleep(pause)
		}
		if n == size {
			err = nil
		}
		for i := 0; i < n; i++ {
			if buf[i] != early[i] {
				err = fmt.Errorf("byte %d is %#x, the producer sent %#x", i, buf[i], early[i])
				break
			}
		}
		got <- outcome{n, err}
	}))
	ln, err := (&net.ListenConfig{Control: smallBuffers}).Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stub.Listener.Close()
	stub.Listener = ln
	stub.Start()
	defer stub.Close()
	r := stubRouter(t, stub.URL)
	r.hc.Transport.(*http.Transport).DialContext = (&net.Dialer{Control: smallBuffers}).DialContext
	h := r.Handler()

	w := &sink{h: http.Header{}}
	h.ServeHTTP(w, ingestReq(bytes.NewReader(early), size, "early"))
	if w.code != http.StatusAccepted {
		t.Fatalf("early answer relayed as %d, want 202", w.code)
	}
	w = &sink{h: http.Header{}}
	h.ServeHTTP(w, ingestReq(bytes.NewReader(filled(size, 0x0F)), size, "other"))
	res := <-got
	if res.err != nil && (pause == 0 || res.err != io.ErrUnexpectedEOF) {
		t.Fatalf("shard read %d bytes: %v", res.n, res.err)
	}
	t.Logf("shard read %d of %d bytes after answering", res.n, size)
}

// TestRouterOutboundOutlivesHandler holds the pooled body to its lifetime
// rule directly: after the handler lets go, the buffer stays out of the
// pool until the last attempt's body is closed, so the next batch read
// cannot land in it; and nothing reads through a closed attempt.
func TestRouterOutboundOutlivesHandler(t *testing.T) {
	want := filled(64<<10, 3)
	for i := 0; i < 20; i++ {
		w := &sink{h: http.Header{}}
		out := readOutbound(w, ingestReq(bytes.NewReader(want), int64(len(want)), "p"))
		body, _ := out.attempt()
		out.unref() // the handler returns; the transport still holds body
		next := readOutbound(w, ingestReq(bytes.NewReader(filled(len(want), 4)), int64(len(want)), "q"))
		if got, err := io.ReadAll(body); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: the transport read %d bytes (%v), not the producer's body", i, len(got), err)
		}
		body.Close()
		if n, err := body.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Fatalf("round %d: read through a closed body: %d, %v", i, n, err)
		}
		next.unref()
	}
}

// smallBuffers sets a socket's kernel send and receive buffers to 16 KiB.
// Left to autotuning, loopback sockets absorb megabytes that nobody has
// read yet.
func smallBuffers(_, _ string, c syscall.RawConn) error {
	var err error
	cerr := c.Control(func(fd uintptr) {
		for _, opt := range []int{syscall.SO_SNDBUF, syscall.SO_RCVBUF} {
			if err == nil {
				err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, 16<<10)
			}
		}
	})
	if cerr != nil {
		return cerr
	}
	return err
}

// TestRouterBodyHandling covers the three ways a body reaches the router:
// a declared length over the limit is refused with 413 before anything is
// read or forwarded; a chunked body reaches the shard intact, with its
// length declared; and a body whose first shard is dead reaches the
// survivor byte for byte.
func TestRouterBodyHandling(t *testing.T) {
	body := filled(100_000, 7)
	var forwarded atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwarded.Add(1)
		b, err := io.ReadAll(r.Body)
		switch {
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		case !bytes.Equal(b, body):
			http.Error(w, "body differs from the producer's", http.StatusBadRequest)
		case r.ContentLength != int64(len(body)) || len(r.TransferEncoding) > 0:
			http.Error(w, fmt.Sprintf("forwarded with length %d, encoding %v", r.ContentLength, r.TransferEncoding), http.StatusBadRequest)
		default:
			w.WriteHeader(http.StatusAccepted)
		}
	}))
	defer stub.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	r := stubRouter(t, stub.URL, dead.URL)
	h := r.Handler()

	w := &sink{h: http.Header{}}
	h.ServeHTTP(w, ingestReq(strings.NewReader("short"), maxBodyBytes+1, "p"))
	if w.code != http.StatusRequestEntityTooLarge || forwarded.Load() != 0 {
		t.Fatalf("declared %d bytes: %d with %d forwarded, want 413 and none", maxBodyBytes+1, w.code, forwarded.Load())
	}

	w = &sink{h: http.Header{}}
	h.ServeHTTP(w, ingestReq(struct{ io.Reader }{bytes.NewReader(body)}, -1, ownedBy(t, r, stub.URL)))
	if w.code != http.StatusAccepted {
		t.Fatalf("chunked body: %d, want 202", w.code)
	}

	w = &sink{h: http.Header{}}
	h.ServeHTTP(w, ingestReq(bytes.NewReader(body), int64(len(body)), ownedBy(t, r, dead.URL)))
	if w.code != http.StatusAccepted || r.isUp(dead.URL) {
		t.Fatalf("failover: %d, dead shard up %v; want 202 from the survivor", w.code, r.isUp(dead.URL))
	}
}

// ownedBy is a producer name the ring puts on shard u.
func ownedBy(t *testing.T, r *Router, u string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if p := fmt.Sprintf("producer-%d", i); r.OwnerOf(p) == u {
			return p
		}
	}
	t.Fatalf("no producer hashes to %s", u)
	return ""
}
