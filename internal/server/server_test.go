package server_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func fixedRanges(n int, lo, hi float64) [][2]float64 {
	out := make([][2]float64, n)
	for i := range out {
		out[i] = [2]float64{lo, hi}
	}
	return out
}

// testStreamConfig is a warmup-free stream (predetermined ranges) so every
// test serves labels from the first refit.
func testStreamConfig(dims int) core.StreamConfig {
	return core.StreamConfig{
		Config:    core.Config{Seed: 7, Trials: 2},
		Dims:      dims,
		RawRanges: fixedRanges(dims, -12, 12),
		Period:    250,
	}
}

func TestBatchWireRoundtrip(t *testing.T) {
	m := linalg.NewMatrix(3, 2)
	copy(m.Data, []float64{1, -2.5, 0, 3.25, -0.125, 9})
	got, err := server.DecodeBatch(server.EncodeBatch(m), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 3 || got.Cols != 2 {
		t.Fatalf("roundtrip shape %dx%d", got.Rows, got.Cols)
	}
	for i, v := range m.Data {
		if got.Data[i] != v {
			t.Fatalf("roundtrip value %d: %v != %v", i, got.Data[i], v)
		}
	}

	if _, err := server.DecodeBatch([]byte("XXXX"), 0); err == nil {
		t.Fatal("accepted bad magic")
	}
	enc := server.EncodeBatch(m)
	if _, err := server.DecodeBatch(enc[:len(enc)-1], 0); err == nil {
		t.Fatal("accepted truncated batch")
	}
	if _, err := server.DecodeBatch(enc, 2); !errors.Is(err, server.ErrBatchTooLarge) {
		t.Fatalf("want ErrBatchTooLarge, got %v", err)
	}
}

// TestBackpressureRejects fills the queue (no writer running) and asserts
// the 429 + retry-hint contract.
func TestBackpressureRejects(t *testing.T) {
	srv, err := server.New(server.Config{
		Stream: testStreamConfig(3), QueueDepth: 1, RetryAfter: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The writer is deliberately not started: the first batch parks in the
	// queue and the second must be rejected, not blocked.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	c.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 1}) // each Ingest is a single attempt

	batch, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(1)).Sample(10, xrand.New(2))
	if _, err := c.Ingest(context.Background(), batch); err != nil {
		t.Fatalf("first batch rejected: %v", err)
	}
	_, err = c.Ingest(context.Background(), batch)
	var bp *client.ErrBackpressure
	if !errors.As(err, &bp) {
		t.Fatalf("want backpressure, got %v", err)
	}
	if bp.RetryAfter != 120*time.Millisecond {
		t.Fatalf("retry hint %s, want 120ms", bp.RetryAfter)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.RejectedBatches != 1 || st.Accepted != 10 || st.QueueLen != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}
}

// TestBadBatchesRejected pins the HTTP edge validation: wrong dims → 400,
// oversized → 413, junk → 400.
func TestBadBatchesRejected(t *testing.T) {
	srv, err := server.New(server.Config{Stream: testStreamConfig(3), MaxBatchPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	wrongDims, _ := synth.AutoMixture(2, 5, 6, 1, xrand.New(1)).Sample(4, xrand.New(2))
	if code := post(server.EncodeBatch(wrongDims)); code != http.StatusBadRequest {
		t.Fatalf("wrong dims → %d, want 400", code)
	}
	tooBig, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(1)).Sample(9, xrand.New(2))
	if code := post(server.EncodeBatch(tooBig)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized → %d, want 413", code)
	}
	if code := post([]byte("not a batch")); code != http.StatusBadRequest {
		t.Fatalf("junk → %d, want 400", code)
	}
}

// TestGracefulShutdownDrains parks batches in the queue, then asserts Stop
// applies every accepted point before returning and that post-drain
// ingests are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, err := server.New(server.Config{Stream: testStreamConfig(4), QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	spec := synth.AutoMixture(2, 4, 6, 1, xrand.New(3))
	rng := xrand.New(4)
	total := 0
	for i := 0; i < 10; i++ {
		batch, _ := spec.Sample(50, rng)
		if _, err := c.Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		total += 50
	}
	// Everything is still queued; the drain must apply it all.
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Seen != int64(total) {
		t.Fatalf("drained seen=%d, want %d", st.Seen, total)
	}
	if !st.Draining {
		t.Fatal("stats should report draining after Stop")
	}
	batch, _ := spec.Sample(5, rng)
	if _, err := c.Ingest(context.Background(), batch); err == nil {
		t.Fatal("ingest accepted after Stop")
	}
}

// TestCheckpointRestoreRoundtrip runs a daemon, kills it gracefully, and
// restarts from its checkpoint: the restored process must report the same
// point count and label a fixed probe batch identically — without needing
// any warmup or new traffic.
func TestCheckpointRestoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		Stream:         testStreamConfig(4),
		CheckpointPath: filepath.Join(dir, "state.kb2s"),
		// Long cadence: the only checkpoint is the final one Stop writes,
		// which is exactly the kill/restart path under test.
		CheckpointEvery: time.Hour,
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)

	spec := synth.AutoMixture(3, 4, 6, 1, xrand.New(5))
	rng := xrand.New(6)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		batch, _ := spec.Sample(250, rng)
		if _, err := c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitSeen(ctx, 2000); err != nil {
		t.Fatal(err)
	}
	probe, _ := spec.Sample(64, xrand.New(7))
	before, err := c.Label(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if before.ModelGen == 0 {
		t.Fatal("no model after 2000 points")
	}
	ts.Close()
	if err := srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process around the same checkpoint.
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seen != 2000 {
		t.Fatalf("restored seen=%d, want 2000", st.Seen)
	}
	if st.Refits == 0 {
		t.Fatal("restored daemon reports no model generation")
	}
	after, err := c2.Label(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Labels {
		if before.Labels[i] != after.Labels[i] {
			t.Fatalf("label %d changed across restart: %d → %d", i, before.Labels[i], after.Labels[i])
		}
	}

	// The restored daemon must also keep ingesting and refitting.
	srv2.Start()
	batch, _ := spec.Sample(500, rng)
	if _, err := c2.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := c2.WaitSeen(ctx, 2500); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsCorruptCheckpoint: a truncated checkpoint must refuse
// to start, not silently begin from scratch.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Stream: testStreamConfig(3), CheckpointPath: filepath.Join(dir, "state.kb2s")}
	if err := os.WriteFile(cfg.CheckpointPath, []byte("KB2Sgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := server.New(cfg); err == nil {
		t.Fatal("started from a corrupt checkpoint")
	}
}

// chunkedBody hides the reader's concrete type so http.NewRequest cannot
// learn a Content-Length and the transport sends Transfer-Encoding:
// chunked — the daemon sees ContentLength -1.
type chunkedBody struct{ io.Reader }

// TestChunkedIngestLimits pins the oversize contract for requests with no
// declared length: a chunked body under the batch limit is accepted
// normally, and one over it gets the same 413 as an oversized declared
// length — not a generic decode 400.
func TestChunkedIngestLimits(t *testing.T) {
	srv, err := server.New(server.Config{Stream: testStreamConfig(3), MaxBatchPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postChunked := func(body []byte) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", chunkedBody{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if req.ContentLength != 0 {
			t.Fatalf("test setup: Content-Length %d leaked, want chunked", req.ContentLength)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	under, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(1)).Sample(8, xrand.New(2))
	if code := postChunked(server.EncodeBatch(under)); code != http.StatusAccepted {
		t.Fatalf("chunked under-limit → %d, want 202", code)
	}
	over, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(1)).Sample(9, xrand.New(2))
	if code := postChunked(server.EncodeBatch(over)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked over-limit → %d, want 413", code)
	}
	if code := postChunked([]byte("junk, but small")); code != http.StatusBadRequest {
		t.Fatalf("chunked junk → %d, want 400", code)
	}
}

// TestRetryAfterHeaderRoundsUp: a sub-second retry hint must round UP to
// Retry-After: 1 — "0" tells well-behaved clients to hammer immediately —
// while the exact hint rides X-Retry-After-Ms.
func TestRetryAfterHeaderRoundsUp(t *testing.T) {
	srv, err := server.New(server.Config{
		Stream: testStreamConfig(3), QueueDepth: 1, RetryAfter: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No writer: the first batch fills the queue, the second is rejected.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(1)).Sample(10, xrand.New(2))
	raw := server.EncodeBatch(batch)
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch → %d", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch → %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\" (120ms rounds up, never down to 0)", got)
	}
	if got := resp.Header.Get("X-Retry-After-Ms"); got != "120" {
		t.Fatalf("X-Retry-After-Ms %q, want \"120\"", got)
	}
}
