package obs

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
)

// FuzzTraceparent: ExtractTraceparent never panics, refuses with the zero
// context, and a context it accepts survives Inject → Extract unchanged.
func FuzzTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		in := http.Header{}
		in.Set(TraceparentHeader, v)
		c, ok := ExtractTraceparent(in)
		if !ok {
			if c != (SpanContext{}) {
				t.Fatalf("refused %q as %+v", v, c)
			}
			return
		}
		if !c.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", v, c)
		}
		out := http.Header{}
		c.Inject(out)
		if again, ok := ExtractTraceparent(out); !ok || again != c {
			t.Fatalf("%+v from %q became %+v (ok %v) through Inject", c, v, again, ok)
		}
	})
}

// FuzzExposition: ParseExposition never panics and allocates at most a
// fixed multiple of its input. The seed is a live WritePrometheus scrape.
func FuzzExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("fuzz_requests_total", "Requests handled.").Add(42)
	r.GaugeVec("fuzz_escaped", `Help with \ backslash`, "path").With("a\"b\\c\nd e").Set(-1.5e-7)
	h := r.Histogram("fuzz_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(2)
	var scrape bytes.Buffer
	if err := r.WritePrometheus(&scrape); err != nil {
		f.Fatal(err)
	}
	f.Add(scrape.Bytes())
	f.Add([]byte("# only a comment\n\nname 1\nname{a=\"x y\"} NaN\nbad\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ParseExposition(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)+1<<14); grew > limit {
			t.Fatalf("parsing %d bytes allocated %d (limit %d)", len(b), grew, limit)
		}
	})
}
