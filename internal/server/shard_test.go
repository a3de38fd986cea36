package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// shardStreamConfig: warmup-free, no local refits — the cluster
// deployment shape, where the shard's model comes from merge installs.
func shardStreamConfig(dims int) core.StreamConfig {
	return core.StreamConfig{
		Config:    core.Config{Seed: 7, Trials: 2},
		Dims:      dims,
		RawRanges: fixedRanges(dims, -12, 12),
		Period:    1 << 30,
	}
}

func ingestMixture(t *testing.T, c *client.Client, dims, n int, seed int64) {
	t.Helper()
	ctx := context.Background()
	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(seed))
	rng := xrand.New(seed + 1)
	for left := n; left > 0; {
		sz := 500
		if sz > left {
			sz = left
		}
		batch, _ := spec.Sample(sz, rng)
		if _, err := c.Ingest(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		left -= sz
	}
	if err := c.WaitSeen(ctx, int64(n)); err != nil {
		t.Fatal(err)
	}
}

// TestHistExportInstallServe is the shard lifecycle: export state, merge
// it, install the global model, and serve /label /model /stats from it.
func TestHistExportInstallServe(t *testing.T) {
	srv, err := server.New(server.Config{
		Stream: shardStreamConfig(4), NodeID: "node-a", Shard: "shard-0",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ingestMixture(t, c, 4, 2000, 11)

	// Export. The shard has never refit (Period is huge): /hist must still
	// answer — the state is histograms, not a model.
	resp, err := http.Get(ts.URL + "/hist")
	if err != nil {
		t.Fatal(err)
	}
	state, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/hist: %d %s", resp.StatusCode, state)
	}
	if got := resp.Header.Get("X-KB2-Node"); got != "node-a" {
		t.Fatalf("X-KB2-Node = %q", got)
	}
	if got := resp.Header.Get("X-KB2-Seen"); got != "2000" {
		t.Fatalf("X-KB2-Seen = %q", got)
	}

	// Merge (of one) + global model, as the router would.
	merged, err := core.MergeShardStates(state)
	if err != nil {
		t.Fatal(err)
	}
	global, err := core.NewGlobalModelState(shardStreamConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	gm, err := global.Install(merged)
	if err != nil {
		t.Fatal(err)
	}
	if global.Seen() != 2000 {
		t.Fatalf("state seen = %d", global.Seen())
	}

	// Install epoch 1 on the shard.
	inst, err := http.Post(ts.URL+"/hist/install?epoch=1&seen=2000", "application/octet-stream",
		bytes.NewReader(gm.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(inst.Body)
	inst.Body.Close()
	if inst.StatusCode != http.StatusOK {
		t.Fatalf("/hist/install: %d %s", inst.StatusCode, body)
	}

	// The read path now serves the global model: /label reports the merge
	// epoch as its generation, /model returns the installed bytes, /stats
	// carries the identity + epoch.
	spec := synth.AutoMixture(3, 4, 6, 1, xrand.New(11))
	probe, _ := spec.Sample(64, xrand.New(99))
	lr, err := c.Label(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if lr.ModelGen != 1 {
		t.Fatalf("label model_gen = %d, want merge epoch 1", lr.ModelGen)
	}
	for i := 0; i < probe.Rows; i++ {
		want, err := gm.Assign(probe.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if lr.Labels[i] != want {
			t.Fatalf("label %d = %d, global model says %d", i, lr.Labels[i], want)
		}
	}
	m, err := c.Model(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Encode(), gm.Encode()) {
		t.Fatal("/model differs from the installed global model")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeID != "node-a" || st.Shard != "shard-0" || st.MergeEpoch != 1 || st.GlobalSeen != 2000 {
		t.Fatalf("stats identity: node=%q shard=%q epoch=%d global_seen=%d",
			st.NodeID, st.Shard, st.MergeEpoch, st.GlobalSeen)
	}
	if st.Clusters != gm.K() {
		t.Fatalf("stats clusters %d, global model %d", st.Clusters, gm.K())
	}

	// A stale (same-epoch) install is refused: epochs only move forward.
	stale, err := http.Post(ts.URL+"/hist/install?epoch=1", "application/octet-stream",
		bytes.NewReader(gm.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stale.Body)
	stale.Body.Close()
	if stale.StatusCode != http.StatusConflict {
		t.Fatalf("stale install: %d, want 409", stale.StatusCode)
	}
	if got := stale.Header.Get("X-KB2-Epoch"); got != "1" {
		t.Fatalf("stale install X-KB2-Epoch = %q", got)
	}
}

func TestHistBeforeWarmup(t *testing.T) {
	srv, err := server.New(server.Config{
		Stream: core.StreamConfig{
			Config: core.Config{Seed: 3, Trials: 2}, Dims: 3, Warmup: 5000, Period: 6000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/hist")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("pre-warmup /hist: %d, want 409", resp.StatusCode)
	}
}

func TestHistInstallValidation(t *testing.T) {
	srv, err := server.New(server.Config{Stream: shardStreamConfig(4)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, url, body string
		want            int
	}{
		{"no epoch", "/hist/install", "x", http.StatusBadRequest},
		{"zero epoch", "/hist/install?epoch=0", "x", http.StatusBadRequest},
		{"garbage model", "/hist/install?epoch=1", "not a model", http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/octet-stream", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// GET on install is a method error.
	resp, err := http.Get(ts.URL + "/hist/install")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /hist/install: %d, want 405", resp.StatusCode)
	}
}

// TestNodeIdentityDefaults: NodeID falls back to RunID so standalone
// daemons keep a stable-enough identity without configuration.
func TestNodeIdentityDefaults(t *testing.T) {
	srv, err := server.New(server.Config{Stream: shardStreamConfig(3), RunID: "run-77"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, err := client.New(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeID != "run-77" {
		t.Fatalf("node_id = %q, want run-77 (RunID fallback)", st.NodeID)
	}
	if st.Shard != "" || st.MergeEpoch != 0 {
		t.Fatalf("standalone daemon reports shard=%q epoch=%d", st.Shard, st.MergeEpoch)
	}
}

// TestHistDuringDrain: a draining shard refuses the merge pull instead of
// deadlocking against a writer that is busy draining its queue.
func TestHistDuringDrain(t *testing.T) {
	srv, err := server.New(server.Config{Stream: shardStreamConfig(3)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/hist")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /hist: %d, want 503", resp.StatusCode)
	}
}
