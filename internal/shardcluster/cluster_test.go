package shardcluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/shardcluster"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func fixedRanges(n int, lo, hi float64) [][2]float64 {
	r := make([][2]float64, n)
	for i := range r {
		r[i] = [2]float64{lo, hi}
	}
	return r
}

// shardConfig is the cluster deployment shape: congruent histograms from
// fixed raw ranges (so shard states merge exactly), no warmup, and a
// never-firing local refit period — the model comes from merge installs.
func shardConfig(dims int) core.StreamConfig {
	return core.StreamConfig{
		Config:    core.Config{Seed: 7, Trials: 2},
		Dims:      dims,
		RawRanges: fixedRanges(dims, -12, 12),
		Period:    1 << 30,
	}
}

func newShard(t *testing.T, node, shardName string, dims int) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{Stream: shardConfig(dims), NodeID: node, Shard: shardName})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Stop(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func rawLabel(t *testing.T, base string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(base+"/label", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/label: %d %s", base, resp.StatusCode, out)
	}
	return out
}

func fetchModel(t *testing.T, base string) []byte {
	t.Helper()
	m, err := client.New(base).Model(context.Background())
	if err != nil {
		t.Fatalf("%s/model: %v", base, err)
	}
	return m.Encode()
}

// TestClusterByteIdenticalToSingleNode is the paper's claim applied to the
// serving layer: a 3-shard cluster fed a partitioned stream through the
// router, after one merge epoch, labels byte-identically to a single node
// fed the same stream — on the router, on every shard, and on the control
// node, the /label responses and /model bytes are equal.
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	const (
		dims      = 4
		producers = 12
		perProd   = 500
		total     = producers * perProd
	)

	var shardURLs []string
	for i := 0; i < 3; i++ {
		_, ts := newShard(t, fmt.Sprintf("node-%d", i), fmt.Sprintf("shard-%d", i), dims)
		shardURLs = append(shardURLs, ts.URL)
	}

	// The control: one node, same stream config, refitting exactly once
	// when it has seen every point.
	soloCfg := shardConfig(dims)
	soloCfg.Period = total
	solo, err := server.New(server.Config{Stream: soloCfg})
	if err != nil {
		t.Fatal(err)
	}
	solo.Start()
	defer solo.Stop(context.Background())
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()

	r, err := shardcluster.New(shardcluster.Config{
		Shards: shardURLs,
		Stream: shardConfig(dims),
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := httptest.NewServer(r.Handler())
	defer rt.Close()

	// Producer names are chosen by ring ownership — 4 per shard — so every
	// shard deterministically takes traffic no matter which random httptest
	// ports the shard URLs hash to.
	perShard := producers / len(shardURLs)
	byShard := make(map[string]int)
	var names []string
	for i := 0; len(names) < producers; i++ {
		name := fmt.Sprintf("producer-%d", i)
		if byShard[r.OwnerOf(name)] >= perShard {
			continue
		}
		byShard[r.OwnerOf(name)]++
		names = append(names, name)
	}

	// Producer-tagged ingest through the router; the identical batches go
	// to the control node. Merge is order-independent, so partitioning by
	// producer is free to scatter.
	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(8))
	soloC := client.New(soloTS.URL)
	for p := 0; p < producers; p++ {
		c := client.New(rt.URL)
		c.SetProducer(names[p])
		rng := xrand.New(100 + int64(p))
		for left := perProd; left > 0; {
			sz := 250
			if sz > left {
				sz = left
			}
			batch, _ := spec.Sample(sz, rng)
			if _, err := c.Ingest(context.Background(), batch); err != nil {
				t.Fatalf("producer %d: %v", p, err)
			}
			if _, err := soloC.Ingest(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			left -= sz
		}
	}
	// WaitSeen works through the router because ClusterStats is a
	// compatible superset of the daemon's Stats JSON.
	routerC := client.New(rt.URL)
	if err := routerC.WaitSeen(context.Background(), total); err != nil {
		t.Fatal(err)
	}
	if err := soloC.WaitSeen(context.Background(), total); err != nil {
		t.Fatal(err)
	}

	// One merge epoch: pull every shard's histograms, fold, install.
	resp, err := http.Post(rt.URL+"/merge", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mr shardcluster.MergeResult
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/merge: %d", resp.StatusCode)
	}
	if mr.Epoch != 1 || mr.Shards != 3 || mr.Installed != 3 || mr.MergedSeen != total {
		t.Fatalf("merge result: %+v", mr)
	}

	// Model bytes: every shard and the control node serve identical bytes.
	want := fetchModel(t, soloTS.URL)
	for _, u := range shardURLs {
		if got := fetchModel(t, u); !bytes.Equal(got, want) {
			t.Fatalf("shard %s model differs from single node", u)
		}
	}

	// Label bytes: the raw /label response is identical on the control
	// node, on each shard, and through the router (model_gen is 1 on both
	// sides — the solo node's first refit, the cluster's first epoch).
	probe, _ := spec.Sample(128, xrand.New(99))
	probeBody := server.EncodeBatch(probe)
	wantLabels := rawLabel(t, soloTS.URL, probeBody)
	for _, u := range shardURLs {
		if got := rawLabel(t, u, probeBody); !bytes.Equal(got, wantLabels) {
			t.Fatalf("shard %s labels differ from single node:\n %s\n vs %s", u, got, wantLabels)
		}
	}
	for i := 0; i < 4; i++ { // round-robins across shards
		if got := rawLabel(t, rt.URL, probeBody); !bytes.Equal(got, wantLabels) {
			t.Fatalf("router labels differ from single node:\n %s\n vs %s", got, wantLabels)
		}
	}

	// The distribution the ring produced: everything landed somewhere, and
	// the cluster stats aggregate back to the full stream.
	cs := r.Stats(context.Background())
	if cs.Seen != total || cs.ShardsUp != 3 || cs.MergeEpoch != 1 || cs.GlobalSeen != total {
		t.Fatalf("cluster stats: seen=%d up=%d epoch=%d global=%d",
			cs.Seen, cs.ShardsUp, cs.MergeEpoch, cs.GlobalSeen)
	}
	var pts int64
	for _, row := range cs.ShardDetail {
		if row.Points == 0 {
			t.Fatalf("shard %s got no points — producers were picked to cover every shard", row.URL)
		}
		if row.Epoch != 1 {
			t.Fatalf("shard %s at epoch %d, want 1", row.URL, row.Epoch)
		}
		pts += row.Points
	}
	if pts != total {
		t.Fatalf("per-shard points sum to %d, want %d", pts, total)
	}
	if cs.Balance <= 0 || cs.Balance > 0.6 {
		t.Fatalf("ring balance cv = %v", cs.Balance)
	}
}

// realShard runs a keybin2d on a real listener whose address survives the
// process: close it, rebind the same address, and the router sees the same
// shard come back — the rejoin path a supervisor restart exercises.
type realShard struct {
	srv  *server.Server
	hs   *http.Server
	addr string
}

func startRealShard(t *testing.T, addr, node string, dims int) *realShard {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Stream: shardConfig(dims), NodeID: node, Shard: node})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &realShard{srv: srv, hs: hs, addr: ln.Addr().String()}
}

func (s *realShard) kill(t *testing.T) {
	t.Helper()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Stop(ctx)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterShardDeathAndRejoin: kill one shard mid-stream. The router
// fails ingest over to survivors and rebalances the ring; the next merge
// epoch completes with the survivors; the shard rebinds its old address
// with fresh state, is readmitted by the health loop, catches up to the
// current global model before contributing anything, and joins the next
// epoch.
func TestClusterShardDeathAndRejoin(t *testing.T) {
	const dims = 3
	shards := make([]*realShard, 3)
	var urls []string
	for i := range shards {
		shards[i] = startRealShard(t, "127.0.0.1:0", fmt.Sprintf("node-%d", i), dims)
		urls = append(urls, "http://"+shards[i].addr)
		i := i
		t.Cleanup(func() { shards[i].kill(t) })
	}

	r, err := shardcluster.New(shardcluster.Config{
		Shards:        urls,
		Stream:        shardConfig(dims),
		HealthEvery:   20 * time.Millisecond,
		FailThreshold: 1,
		ShardTimeout:  5 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	rt := httptest.NewServer(r.Handler())
	defer rt.Close()

	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(4))
	ingest := func(producer string, n int, seed int64) {
		t.Helper()
		c := client.New(rt.URL)
		c.SetProducer(producer)
		rng := xrand.New(seed)
		var batch *linalg.Matrix
		for left := n; left > 0; {
			sz := 200
			if sz > left {
				sz = left
			}
			batch, _ = spec.Sample(sz, rng)
			if _, err := c.Ingest(context.Background(), batch); err != nil {
				t.Fatalf("producer %s: %v", producer, err)
			}
			left -= sz
		}
	}
	for p := 0; p < 9; p++ {
		ingest(fmt.Sprintf("producer-%d", p), 400, 50+int64(p))
	}
	if err := client.New(rt.URL).WaitSeen(context.Background(), 3600); err != nil {
		t.Fatal(err)
	}
	mr, err := r.MergeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 1 || mr.Shards != 3 || mr.Installed != 3 {
		t.Fatalf("epoch 1: %+v", mr)
	}

	// Kill the shard that owns a known producer, then keep ingesting as
	// that producer: the batch must land on a survivor, not error.
	const orphan = "producer-orphan"
	victimURL := r.OwnerOf(orphan)
	var victim *realShard
	for i, u := range urls {
		if u == victimURL {
			victim = shards[i]
		}
	}
	// Snapshot how many of the 3600 points the victim holds: the ring is
	// seeded by random test ports, so this can legitimately be zero.
	vst, err := client.New(victimURL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	victim.kill(t)

	ingest(orphan, 400, 77)
	waitFor(t, "victim marked down", func() bool {
		return r.OwnerOf(orphan) != victimURL
	})
	if owner := r.OwnerOf(orphan); owner == victimURL || owner == "" {
		t.Fatalf("orphan producer owned by %q after death of %q", owner, victimURL)
	}

	// An ack is an enqueue; the epoch below must see the orphan's batches
	// applied (the writer serves /hist and its queue in either order).
	if err := client.New(rt.URL).WaitSeen(context.Background(), 3600-vst.Seen+400); err != nil {
		t.Fatal(err)
	}

	// The next epoch completes with the survivors. The dead shard's
	// histograms die with it (state exchange is cumulative from live
	// shards), so the merged count drops — degraded, not stuck.
	mr, err = r.MergeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 2 || mr.Shards != 2 || mr.Installed != 2 {
		t.Fatalf("epoch 2: %+v", mr)
	}
	if want := 3600 - vst.Seen + 400; mr.MergedSeen != want {
		t.Fatalf("epoch 2 merged %d points, want %d — the dead shard's %d points should be gone, the orphan's 400 re-routed",
			mr.MergedSeen, want, vst.Seen)
	}
	probe, _ := spec.Sample(32, xrand.New(99))
	lr, err := client.New(rt.URL).Label(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if lr.ModelGen != 2 {
		t.Fatalf("post-death label model_gen = %d, want 2", lr.ModelGen)
	}

	// Rebind the victim's address with FRESH state — a supervisor restart.
	reborn := startRealShard(t, victim.addr, "node-reborn", dims)
	t.Cleanup(func() { reborn.kill(t) })
	waitFor(t, "victim readmitted and caught up", func() bool {
		cs := r.Stats(context.Background())
		for _, row := range cs.ShardDetail {
			if row.URL == victimURL {
				return row.Up && row.Epoch == 2
			}
		}
		return false
	})
	// Despite holding zero points, the reborn shard serves the current
	// global model (the catch-up install).
	lr, err = client.New(victimURL).Label(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if lr.ModelGen != 2 || lr.Clusters == 0 {
		t.Fatalf("reborn shard: model_gen=%d clusters=%d, want catch-up epoch 2", lr.ModelGen, lr.Clusters)
	}
	// And its ring range is back.
	waitFor(t, "ring range restored", func() bool {
		return r.OwnerOf(orphan) == victimURL
	})

	// The reborn shard joins the next epoch as a (so far empty) member.
	mr, err = r.MergeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 3 || mr.Shards != 3 || mr.Installed != 3 {
		t.Fatalf("epoch 3: %+v", mr)
	}
}

// TestClusterNoShardsReady: a router whose only shard is unreachable
// reports not-ready and refuses traffic instead of hanging.
func TestClusterNoShardsReady(t *testing.T) {
	r, err := shardcluster.New(shardcluster.Config{
		Shards:        []string{"http://127.0.0.1:1"}, // nothing listens on port 1
		Stream:        shardConfig(3),
		HealthEvery:   10 * time.Millisecond,
		FailThreshold: 1,
		ShardTimeout:  time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	rt := httptest.NewServer(r.Handler())
	defer rt.Close()

	waitFor(t, "lone shard marked down", func() bool {
		resp, err := http.Get(rt.URL + "/readyz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(10, xrand.New(2))
	resp, err := http.Post(rt.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(server.EncodeBatch(batch)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with no shards: %d, want 503", resp.StatusCode)
	}
	if _, err := r.MergeOnce(context.Background()); err == nil {
		t.Fatal("merge with no shards up should fail")
	}
}

// TestRouterRefusesMalformedShardURL: a shard URL the router could never
// build a request for is a config error at New, not a nil request on the
// first health round.
func TestRouterRefusesMalformedShardURL(t *testing.T) {
	for _, u := range []string{"http://[::1", "127.0.0.1:7420", "ftp://h:7420", "http://", "/shard"} {
		if _, err := shardcluster.New(shardcluster.Config{
			Shards: []string{"http://127.0.0.1:1", u},
			Stream: shardConfig(3),
		}); err == nil {
			t.Errorf("New accepted shard URL %q", u)
		}
	}
}
