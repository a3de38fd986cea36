package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/cluster"
	"keybin2/internal/core"
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

func startDaemon(t *testing.T, dims, queueDepth int) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(server.Config{
		Stream: core.StreamConfig{
			Config:    core.Config{Seed: 11, Trials: 2},
			Dims:      dims,
			RawRanges: fixedRanges(dims, -12, 12),
			Period:    250,
		},
		QueueDepth: queueDepth,
		RetryAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Stop(ctx); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return srv, client.New(ts.URL)
}

// TestIngestRetriesBackpressure pins the client's retry loop against a
// fake daemon that rejects twice before accepting.
func TestIngestRetriesBackpressure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Retry-After-Ms", "3")
			http.Error(w, "full", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"queued":1}`))
	}))
	defer ts.Close()

	batch, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(1)).Sample(1, xrand.New(2))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ack, err := client.New(ts.URL).Ingest(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (two rejections + one accept)", got)
	}
	if ack.Retries != 2 {
		t.Fatalf("ack reports %d retries, want 2", ack.Retries)
	}
}

// TestLoadPerWorkerProducers covers the router-facing load mode: every
// ingest worker is its own producer (own identity, own sequence), built
// from the caller's client, and the daemon dedupes each independently.
func TestLoadPerWorkerProducers(t *testing.T) {
	srv, c := startDaemon(t, 4, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, c, client.LoadConfig{
		Points: 1200, Dims: 4, BatchSize: 100,
		Ingesters: 3, Seed: 5, ProducerPrefix: "w",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalSeen != 1200 {
		t.Fatalf("daemon saw %d of 1200 points", rep.FinalSeen)
	}
	got := srv.Stats().Producers
	for _, p := range []string{"w-0", "w-1", "w-2"} {
		if got[p] != 4 {
			t.Fatalf("producer %s acked through seq %d, want 4 (producers: %v)", p, got[p], got)
		}
	}
}

// TestConcurrentLoad is the -race proof of the whole service: concurrent
// ingesters and label queriers against a live daemon, then model fetch and
// label agreement between daemon-side and client-side assignment.
func TestConcurrentLoad(t *testing.T) {
	const dims = 5
	srv, c := startDaemon(t, dims, 16)
	_ = srv

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, c, client.LoadConfig{
		Points: 4000, Dims: dims, BatchSize: 100,
		Ingesters: 3, QueryWorkers: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalSeen < 4000 {
		t.Fatalf("daemon saw %d of 4000 points", rep.FinalSeen)
	}
	if rep.FinalRefits == 0 || rep.FinalClusters == 0 {
		t.Fatalf("no live model after load: %+v", rep)
	}
	if rep.Queries == 0 {
		t.Fatal("query workers measured nothing")
	}
	if rep.IngestPointsPerSec <= 0 {
		t.Fatalf("throughput %v", rep.IngestPointsPerSec)
	}

	// The fetched model must label exactly like the daemon's /label.
	model, err := c.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := synth.AutoMixture(4, dims, 6, 1, xrand.New(21)).Sample(128, xrand.New(23))
	remote, err := c.Label(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for i := 0; i < probe.Rows; i++ {
		local, err := model.Assign(probe.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if local != remote.Labels[i] {
			t.Fatalf("point %d: local %d vs daemon %d", i, local, remote.Labels[i])
		}
		if local != cluster.Noise {
			labeled++
		}
	}
	if labeled == 0 {
		t.Fatal("every probe point is noise")
	}
	t.Logf("load: %.0f pts/s ingest, %d queries p50=%.2fms p99=%.2fms, %d refits, %d clusters, %d backpressure",
		rep.IngestPointsPerSec, rep.Queries, rep.QueryP50Ms, rep.QueryP99Ms,
		rep.FinalRefits, rep.FinalClusters, rep.Backpressure)
}

// TestLabelBeforeModel: a daemon that has not refitted yet answers
// all-noise with generation 0 instead of failing.
func TestLabelBeforeModel(t *testing.T) {
	srv, err := server.New(server.Config{
		Stream: core.StreamConfig{Config: core.Config{Seed: 3}, Dims: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	probe, _ := synth.AutoMixture(2, 3, 6, 1, xrand.New(4)).Sample(5, xrand.New(5))
	res, err := c.Label(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelGen != 0 {
		t.Fatalf("warmup daemon reports generation %d", res.ModelGen)
	}
	for _, l := range res.Labels {
		if l != cluster.Noise {
			t.Fatalf("warmup label %d", l)
		}
	}
}
