package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/linalg"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

// streamCfg builds the minimal daemon stream config the trace tests need:
// fixed raw ranges (no per-dim estimation) and a refit period far beyond
// what the tests ingest, so the writer path is deterministic.
func streamCfg(dims int) core.StreamConfig {
	rr := make([][2]float64, dims)
	for i := range rr {
		rr[i] = [2]float64{-12, 12}
	}
	return core.StreamConfig{
		Config:    core.Config{Seed: 11, Trials: 2},
		Dims:      dims,
		RawRanges: rr,
		Period:    1 << 30,
	}
}

// decodeTraces parses a GET /trace body ({"traces":[...]}).
func decodeTraces(t *testing.T, r io.Reader) []obs.TraceJSON {
	t.Helper()
	var body struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		t.Fatalf("decode /trace: %v", err)
	}
	return body.Traces
}

// TestClientStampsTraceparent: every ingest and label request carries a
// well-formed traceparent header, each request names a distinct trace,
// and the ingest ack surfaces the trace ID the client stamped.
func TestClientStampsTraceparent(t *testing.T) {
	var mu sync.Mutex
	headers := map[string][]string{} // path → traceparent values, in order
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers[r.URL.Path] = append(headers[r.URL.Path], r.Header.Get("Traceparent"))
		mu.Unlock()
		switch r.URL.Path {
		case "/ingest":
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"queued":2,"seq":1}`))
		case "/label":
			w.Write([]byte(`{"labels":[0,0],"model_gen":1,"clusters":1}`))
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	batch := linalg.NewMatrix(2, 3)
	ctx := context.Background()

	ack, err := c.IngestSeq(ctx, batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestSeq(ctx, batch, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Label(ctx, batch); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	var scs []obs.SpanContext
	for _, path := range []string{"/ingest", "/label"} {
		for _, tp := range headers[path] {
			h := http.Header{}
			h.Set(obs.TraceparentHeader, tp)
			sc, ok := obs.ExtractTraceparent(h)
			if !ok {
				t.Fatalf("%s carried malformed traceparent %q", path, tp)
			}
			scs = append(scs, sc)
		}
	}
	if len(scs) != 3 {
		t.Fatalf("saw %d traced requests, want 3", len(scs))
	}
	if scs[0].TraceID == scs[1].TraceID {
		t.Errorf("two ingests share trace id %s", scs[0].TraceID)
	}
	if ack.TraceID != scs[0].TraceID {
		t.Errorf("ack trace id %q != stamped %q", ack.TraceID, scs[0].TraceID)
	}
}

// TestIngestTraceJoinsDaemon: an ingest against a real daemon produces a
// daemon-side trace whose trace ID is the one the client's ack reports —
// the single-hop version of the cross-process reconstruction the router
// test does at fleet scale.
func TestIngestTraceJoinsDaemon(t *testing.T) {
	srv, err := server.New(server.Config{Stream: streamCfg(3)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := New(ts.URL)
	batch := linalg.NewMatrix(4, 3)
	ack, err := c.Ingest(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if ack.TraceID == "" {
		t.Fatal("ack carries no trace id")
	}

	// The ack is sent once the batch is queued; the daemon's trace is
	// published when its writer has applied it. Wait for that.
	var traces []obs.TraceJSON
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(ts.URL + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		traces = decodeTraces(t, resp.Body)
		resp.Body.Close()
		if len(traces) > 0 || time.Now().After(deadline) {
			break
		}
	}
	found := false
	for _, tr := range traces {
		if tr.TraceID == ack.TraceID {
			found = true
			if tr.ParentID == "" {
				t.Errorf("daemon trace %s has no parent span (should link to the client's)", tr.TraceID)
			}
			var names []string
			for _, sp := range tr.Spans {
				names = append(names, sp.Name)
			}
			if joined := strings.Join(names, ","); !strings.Contains(joined, "ingest") {
				t.Errorf("trace %s spans = %s", tr.TraceID, joined)
			}
		}
	}
	if !found {
		t.Fatalf("client trace id %s not found among %d daemon traces", ack.TraceID, len(traces))
	}
}
