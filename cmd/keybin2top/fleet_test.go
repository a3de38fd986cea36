package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/failover"
	"keybin2/internal/server"
	"keybin2/internal/shardcluster"
)

// startNode serves one in-process daemon and stops it when the test ends.
func startNode(t *testing.T, cfg server.Config) string {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	srv.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Stop(ctx)
	})
	return ts.URL
}

// snapshot runs one keybin2top frame and decodes it.
func snapshot(t *testing.T, o options) FleetSnapshot {
	t.Helper()
	o.jsonOut = true
	var buf bytes.Buffer
	if err := run(context.Background(), o, &buf); err != nil {
		t.Fatal(err)
	}
	var snap FleetSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("frame is not JSON: %v\n%s", err, buf.String())
	}
	return snap
}

func rowsByURL(snap FleetSnapshot) map[string]ShardRow {
	rows := make(map[string]ShardRow, len(snap.Shards))
	for _, r := range snap.Shards {
		rows[r.URL] = r
	}
	return rows
}

// spreadPrefix returns a producer prefix under which a load of ingesters
// workers, producers "<prefix>-<worker>", reaches every one of n shards.
// Producers pin to shards by hash over the shards' URLs, whose ports
// change from run to run.
func spreadPrefix(rt *shardcluster.Router, ingesters, n int) string {
	for i := 0; ; i++ {
		prefix := fmt.Sprintf("main%d", i)
		owners := map[string]bool{}
		for w := 0; w < ingesters; w++ {
			owners[rt.OwnerOf(fmt.Sprintf("%s-%d", prefix, w))] = true
		}
		if len(owners) == n {
			return prefix
		}
	}
}

func hasTree(snap FleetSnapshot, traceID string, minNodes int) bool {
	for _, ft := range snap.TraceTrees {
		if ft.TraceID == traceID && ft.Nodes >= minNodes {
			return true
		}
	}
	return false
}

// TestFleetReadBack is the observability plane read back over HTTP from
// a whole fleet in one process: three shards behind a router and a
// primary/follower pair under a supervisor take load through
// client.RunLoad, and keybin2top's one-shot, watch and table modes must
// show the story — where every point landed, the merge epoch on every
// shard, live p99s, the replica roles and the supervisor's view, and one
// ingest's trace assembled across the router and its owning shard.
func TestFleetReadBack(t *testing.T) {
	const (
		shardDims = 4
		mainLoad  = 3000
		tracerPts = 512
		load2     = 1500
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Shards must share the raw ranges and a period no load reaches, or
	// their histograms do not merge.
	var shards []string
	for _, name := range []string{"a", "b", "c"} {
		shards = append(shards, startNode(t, server.Config{
			Stream: testStream(shardDims), NodeID: "node-" + name, Shard: "shard-" + name,
		}))
	}
	rt, err := shardcluster.New(shardcluster.Config{
		Shards: shards, Stream: testStream(shardDims),
		HealthEvery: 100 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	rt.Start()
	t.Cleanup(func() { rt.Stop(); router.Close() })

	// The supervised replica pair feeds the role, epoch and election columns.
	dir := t.TempDir()
	replica := testStream(3)
	replica.Period = 1000
	primary := startNode(t, server.Config{Stream: replica, NodeID: "rep-a", WALDir: filepath.Join(dir, "a")})
	follower := startNode(t, server.Config{
		Stream: replica, NodeID: "rep-b", WALDir: filepath.Join(dir, "b"),
		FollowURL: primary, FollowPoll: 50 * time.Millisecond,
	})
	sup, err := failover.New(failover.Config{
		Nodes: []string{primary, follower}, ProbeEvery: 50 * time.Millisecond, FailAfter: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	supTS := httptest.NewServer(sup.Handler())
	sup.Start()
	t.Cleanup(func() { sup.Stop(); supTS.Close() })
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if st := sup.Status(); st.Primary == primary && st.ClusterEpoch == 1 && st.RunID != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never adopted %s at epoch 1: %+v", primary, sup.Status())
		}
	}

	// The main load through the router, a trickle into the replica set,
	// then one solo batch: the slowest ingest of a one-batch run is that
	// batch, so the report hands back its trace ID. Each load through the
	// router has producer ids of its own: a shard deduplicates a reused id's
	// restarted sequence.
	load := func(base string, cfg client.LoadConfig) client.LoadReport {
		t.Helper()
		rep, err := client.RunLoad(ctx, client.New(base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	load(router.URL, client.LoadConfig{Points: mainLoad, Dims: shardDims, Ingesters: 6, ProducerPrefix: spreadPrefix(rt, 6, len(shards))})
	load(primary, client.LoadConfig{Points: 1000, Dims: 3})
	tracer := load(router.URL, client.LoadConfig{
		Points: tracerPts, Dims: shardDims, BatchSize: tracerPts, Ingesters: 1,
		QueryWorkers: -1, Seed: 3, ProducerPrefix: "tracer",
	})
	if id, err := hex.DecodeString(tracer.SlowestIngestTrace); err != nil || len(id) != 16 || tracer.SlowestIngestMs <= 0 {
		t.Fatalf("tracer shot: trace %q (%v), slowest %v ms; want 32 hex digits and > 0 ms",
			tracer.SlowestIngestTrace, err, tracer.SlowestIngestMs)
	}

	// Merge epoch 1 over all three shards.
	resp, err := http.Post(router.URL+"/merge", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var merge shardcluster.MergeResult
	err = json.NewDecoder(resp.Body).Decode(&merge)
	resp.Body.Close()
	if err != nil || merge.Epoch != 1 || merge.Shards != 3 {
		t.Fatalf("first merge: %+v (%v), want epoch 1 over 3 shards", merge, err)
	}

	nodes := append(append([]string{}, shards...), primary, follower)
	full := options{nodes: nodes, router: router.URL, supervisor: supTS.URL, maxTraces: 2000, timeout: 3 * time.Second}
	// A shard publishes an ingest's trace once its writer has applied the
	// batch, which the ack does not wait for.
	var one FleetSnapshot
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if one = snapshot(t, full); hasTree(one, tracer.SlowestIngestTrace, 2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never assembled across 2 nodes: %+v", tracer.SlowestIngestTrace, one.TraceTrees)
		}
	}
	rows := rowsByURL(one)
	var accepted int64
	for _, u := range shards {
		r := rows[u]
		if !r.Up || r.MergeEpoch != 1 || r.EpochStale != 0 || r.P99IngestMs < 0 {
			t.Errorf("shard row %+v: want up, merge epoch 1, staleness 0, p99 ≥ 0", r)
		}
		accepted += r.Accepted
	}
	if accepted != mainLoad+tracerPts {
		t.Errorf("shards accepted %d in all, want %d", accepted, mainLoad+tracerPts)
	}
	if one.MaxMergeEpoch != 1 {
		t.Errorf("max merge epoch %d, want 1", one.MaxMergeEpoch)
	}
	if rows[primary].Role != "primary" || rows[follower].Role != "follower" {
		t.Errorf("replica roles %q / %q, want primary / follower", rows[primary].Role, rows[follower].Role)
	}
	if one.Primary != primary || one.ClusterEpoch != 1 || !one.PrimaryUp {
		t.Errorf("supervisor view: primary %q epoch %d up %v, want %q at epoch 1, up",
			one.Primary, one.ClusterEpoch, one.PrimaryUp, primary)
	}

	// More load: each shard's counter only grows, and the growth is
	// exactly the new points.
	load(router.URL, client.LoadConfig{Points: load2, Dims: shardDims, Ingesters: 6, Seed: 2, ProducerPrefix: "more"})
	full.maxTraces = 0
	two := snapshot(t, full)
	rows2 := rowsByURL(two)
	var grown int64
	for _, u := range shards {
		d := rows2[u].Accepted - rows[u].Accepted
		if d < 0 {
			t.Errorf("shard %s accepted went back by %d", u, -d)
		}
		grown += d
	}
	if grown != load2 || two.MaxMergeEpoch != 1 {
		t.Errorf("second load: shards grew by %d (want %d), max merge epoch %d (want 1)", grown, load2, two.MaxMergeEpoch)
	}

	// Watch mode: two frames, delta rates, no election downtime.
	watch := full
	watch.jsonOut, watch.watch, watch.count = true, 100*time.Millisecond, 2
	var buf bytes.Buffer
	if err := run(ctx, watch, &buf); err != nil {
		t.Fatal(err)
	}
	frames := 0
	for dec := json.NewDecoder(&buf); ; frames++ {
		var f FleetSnapshot
		if err := dec.Decode(&f); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !f.PrimaryUp || f.ElectionDowntimeSec != 0 {
			t.Errorf("watch frame %d: primary up %v, downtime %v s", frames, f.PrimaryUp, f.ElectionDowntimeSec)
		}
		for _, r := range f.Shards {
			if r.Up && r.RatePtsSec < 0 {
				t.Errorf("watch frame %d: %s rate %v", frames, r.URL, r.RatePtsSec)
			}
		}
	}
	if frames != 2 {
		t.Errorf("watch -count 2 emitted %d frames", frames)
	}

	// And the human form renders.
	buf.Reset()
	if err := run(ctx, options{nodes: nodes, supervisor: supTS.URL, timeout: 3 * time.Second}, &buf); err != nil {
		t.Fatal(err)
	}
	table := buf.String()
	if !strings.Contains("\n"+table, "\nNODE") || !strings.Contains(table, "primary "+primary) {
		t.Errorf("table has no NODE header or no primary %s:\n%s", primary, table)
	}
}
