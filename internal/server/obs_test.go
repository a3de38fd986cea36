package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/failover"
	"keybin2/internal/linalg"
	"keybin2/internal/obs"
	"keybin2/internal/server"
	"keybin2/internal/shardcluster"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// TestMetricsEndToEnd drives a WAL-enabled server through ingest + refit
// and asserts the /metrics exposition tells the same story: accepted
// points and batches, WAL appends/fsyncs, applied points, model version,
// stage and HTTP latency histograms, and the build-info identity series.
// After rejected, duplicate, label and checkpoint traffic too, /stats
// and /metrics agree on every count the daemon keeps.
func TestMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.New(server.Config{
		Stream:         testStreamConfig(4),
		WALDir:         dir,
		Fsync:          "always",
		CheckpointPath: filepath.Join(dir, "state.kb2s"),
		QueueDepth:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := client.New(ts.URL)
	c.SetProducer("obs-test")
	ctx := context.Background()
	spec := synth.AutoMixture(2, 4, 6, 1, xrand.New(1))
	const batches, per = 3, 100
	sample := func(i int) *linalg.Matrix {
		batch, _ := spec.Sample(per, xrand.New(int64(i)))
		return batch
	}
	// The writer starts after the first batch: that batch parks in the
	// one-slot queue, and a single-attempt send behind it is rejected.
	if _, err := c.Ingest(ctx, sample(0)); err != nil {
		t.Fatal(err)
	}
	once := client.New(ts.URL)
	once.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 1})
	var bp *client.ErrBackpressure
	if _, err := once.Ingest(ctx, sample(0)); !errors.As(err, &bp) {
		t.Fatalf("send behind a full queue: %v, want backpressure", err)
	}
	srv.Start()
	defer srv.Stop(context.Background())
	for i := 1; i < batches; i++ {
		if _, err := c.Ingest(ctx, sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitSeen(ctx, batches*per); err != nil {
		t.Fatal(err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exact := map[string]float64{
		"keybin2d_ingest_accepted_points_total":            batches * per,
		`keybin2d_ingest_batches_total{result="accepted"}`: batches,
		"keybin2d_points_seen":                             batches * per,
		"keybin2d_wal_appends_total":                       batches,
		"keybin2d_wal_last_seq":                            batches,
	}
	for series, want := range exact {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	atLeast := map[string]float64{
		"keybin2d_wal_fsyncs_total":        1,
		"keybin2d_wal_fsync_seconds_count": 1,
		// Group commit: every ack either led an fsync (observed into the
		// batch-size histogram) or coalesced onto one.
		"keybin2d_wal_group_commit_batches_count":                1,
		"keybin2d_ingest_queue_capacity":                         1,
		"keybin2d_model_version":                                 1, // Period 250 < 300 ingested
		`keybin2d_stage_seconds_count{stage="refit"}`:            1,
		`keybin2d_http_request_seconds_count{endpoint="ingest"}`: batches,
	}
	for series, min := range atLeast {
		if got := m[series]; got < min {
			t.Errorf("%s = %v, want >= %v", series, got, min)
		}
	}
	found := false
	for series, v := range m {
		if strings.HasPrefix(series, "keybin2d_build_info{") {
			found = true
			if v != 1 {
				t.Errorf("%s = %v, want 1", series, v)
			}
			if !strings.Contains(series, `fsync="always"`) || !strings.Contains(series, "run_id=") {
				t.Errorf("build_info labels incomplete: %s", series)
			}
		}
	}
	if !found {
		t.Error("keybin2d_build_info series missing")
	}
	if st, err := c.Stats(ctx); err != nil || st.RunID == "" {
		t.Errorf("stats run_id missing (err=%v, stats=%+v)", err, st)
	}

	// A duplicate, a label query and the drain's final checkpoint join
	// the traffic; each event is counted once, so /stats reads the very
	// counters /metrics exposes.
	if ack, err := c.IngestSeq(ctx, sample(0), 1); err != nil || !ack.Duplicate {
		t.Fatalf("re-send of seq 1: ack %+v, err %v; want a duplicate", ack, err)
	}
	if _, err := c.Label(ctx, sample(1)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct {
		stats  int64
		series string
	}{
		{st.Accepted, "keybin2d_ingest_accepted_points_total"},
		{st.RejectedBatches, `keybin2d_ingest_batches_total{result="rejected_backpressure"}`},
		{st.DuplicateBatches, `keybin2d_ingest_batches_total{result="duplicate"}`},
		{st.Labeled, "keybin2d_label_points_total"},
		{st.Checkpoints, "keybin2d_checkpoints_total"},
	} {
		if n.stats == 0 || float64(n.stats) != m[n.series] {
			t.Errorf("/stats counts %d where /metrics %s = %v; want the same non-zero count", n.stats, n.series, m[n.series])
		}
	}
}

// TestIngestTraceChain asserts each accepted batch produces one trace
// whose spans walk the pipeline in order: ingest → wal_append → enqueue,
// with the group-commit fsync and the apply present after the enqueue.
// fsync and apply are deliberately unordered with respect to each other —
// the pipelined writer overlaps them.
func TestIngestTraceChain(t *testing.T) {
	tracer := obs.NewTracer(16)
	srv, err := server.New(server.Config{
		Stream: testStreamConfig(4),
		WALDir: t.TempDir(),
		Fsync:  "always",
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()
	defer srv.Stop(context.Background())

	c := client.New(ts.URL)
	ctx := context.Background()
	batch, _ := spec4().Sample(32, xrand.New(2))
	if _, err := c.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitSeen(ctx, 32); err != nil {
		t.Fatal(err)
	}

	// The trace finishes once both the apply and the durability wait have
	// closed their shares; poll /trace briefly rather than racing them.
	ordered := []string{"ingest", "wal_append", "enqueue"}
	present := []string{"fsync", "apply"}
	deadline := time.Now().Add(2 * time.Second)
	var lastSpans []string
	for time.Now().Before(deadline) {
		lastSpans = nil
		var body struct {
			Traces []obs.TraceJSON `json:"traces"`
		}
		resp, err := http.Get(ts.URL + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range body.Traces {
			if tr.Name != "ingest_batch" {
				continue
			}
			for _, sp := range tr.Spans {
				lastSpans = append(lastSpans, sp.Name)
			}
			if hasSubsequence(lastSpans, ordered) && hasAll(lastSpans[len(ordered)-1:], present) {
				if tr.Attrs["points"] != float64(32) {
					t.Fatalf("trace points attr = %v, want 32", tr.Attrs["points"])
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no ingest_batch trace with ordered spans %v plus %v after the enqueue (last saw %v)",
		ordered, present, lastSpans)
}

func spec4() *synth.MixtureSpec {
	return synth.AutoMixture(2, 4, 6, 1, xrand.New(1))
}

// hasSubsequence reports whether want appears in got, in order, allowing
// extra spans (e.g. a refit) in between.
func hasSubsequence(got, want []string) bool {
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	return i == len(want)
}

// hasAll reports whether every want span appears somewhere in got.
func hasAll(got, want []string) bool {
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestMethodNotAllowed pins the 405 contract for every endpoint of all
// three daemons: read endpoints refuse writes (Allow: GET), write
// endpoints refuse reads (Allow: POST), and pprof — when enabled — is
// GET-only too.
func TestMethodNotAllowed(t *testing.T) {
	srv, err := server.New(server.Config{
		Stream:      testStreamConfig(3),
		EnablePprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The router and the supervisor are built over the daemon but never
	// started: a 405 is answered before either would reach for it.
	router, err := shardcluster.New(shardcluster.Config{
		Shards: []string{ts.URL}, Stream: testStreamConfig(3), EnablePprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()
	sup, err := failover.New(failover.Config{Nodes: []string{ts.URL}, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(sup.Handler())
	defer sts.Close()
	base := map[string]string{"daemon": ts.URL, "router": rts.URL, "supervisor": sts.URL}

	cases := []struct {
		on, method, path, allow string
	}{
		{"daemon", http.MethodPost, "/stats", "GET"},
		{"daemon", http.MethodPost, "/metrics", "GET"},
		{"daemon", http.MethodPost, "/trace", "GET"},
		{"daemon", http.MethodPost, "/model", "GET"},
		{"daemon", http.MethodPost, "/healthz", "GET"},
		{"daemon", http.MethodPost, "/readyz", "GET"},
		{"daemon", http.MethodPost, "/debug/pprof/", "GET"},
		{"daemon", http.MethodDelete, "/metrics", "GET"},
		{"daemon", http.MethodGet, "/ingest", "POST"},
		{"daemon", http.MethodGet, "/label", "POST"},
		{"daemon", http.MethodPost, "/wal", "GET"},
		{"daemon", http.MethodPost, "/snapshot", "GET"},
		{"daemon", http.MethodPost, "/hist", "GET"},
		{"daemon", http.MethodGet, "/promote", "POST"},
		{"daemon", http.MethodGet, "/fence", "POST"},
		{"daemon", http.MethodGet, "/epoch", "POST"},
		{"daemon", http.MethodGet, "/hist/install", "POST"},
		{"daemon", http.MethodPut, "/fence", "POST"},

		{"router", http.MethodPost, "/stats", "GET"},
		{"router", http.MethodPost, "/ring", "GET"},
		{"router", http.MethodPost, "/metrics", "GET"},
		{"router", http.MethodPost, "/trace", "GET"},
		{"router", http.MethodPost, "/healthz", "GET"},
		{"router", http.MethodPost, "/readyz", "GET"},
		{"router", http.MethodPost, "/debug/pprof/", "GET"},
		{"router", http.MethodGet, "/ingest", "POST"},
		{"router", http.MethodGet, "/label", "POST"},
		{"router", http.MethodGet, "/merge", "POST"},

		{"supervisor", http.MethodPost, "/status", "GET"},
		{"supervisor", http.MethodPost, "/metrics", "GET"},
		{"supervisor", http.MethodPost, "/trace", "GET"},
		{"supervisor", http.MethodPost, "/healthz", "GET"},
		{"supervisor", http.MethodPost, "/debug/pprof/", "GET"},
	}
	for _, tc := range cases {
		t.Run(tc.on+" "+tc.method+" "+tc.path, func(t *testing.T) {
			req, _ := http.NewRequest(tc.method, base[tc.on]+tc.path, strings.NewReader(""))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
			}
		})
	}

	// HEAD rides on GET everywhere.
	for on, u := range base {
		resp, err := http.Head(u + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD %s /healthz: status %d, want 200", on, resp.StatusCode)
		}
	}

	// The happy path still answers: pprof index on GET.
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ status %d, want 200", resp.StatusCode)
	}

	// And stays absent when not enabled.
	srv2, err := server.New(server.Config{Stream: testStreamConfig(3)})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ without -pprof: status %d, want 404", resp.StatusCode)
	}
}
