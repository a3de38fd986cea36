package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/linalg"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

func testStream(dims int) core.StreamConfig {
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

// TestOneShotSnapshot: a one-shot run against a live daemon produces a
// frame with the daemon up, its accepted counter, a p99 from the live
// histogram, and the ingest's trace ID in the assembled trace trees.
func TestOneShotSnapshot(t *testing.T) {
	srv, err := server.New(server.Config{Stream: testStream(3)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := client.New(ts.URL)
	ack, err := c.Ingest(context.Background(), linalg.NewMatrix(8, 3))
	if err != nil {
		t.Fatal(err)
	}

	// The 202 comes before the writer applies the batch and finishes its
	// trace, so a frame taken at once may predate the trace: take frames
	// until one holds it, for at most the deadline.
	var snap FleetSnapshot
	traced := func() bool {
		for _, ft := range snap.TraceTrees {
			if ft.TraceID == ack.TraceID {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var buf bytes.Buffer
		o := options{nodes: []string{ts.URL}, jsonOut: true, maxTraces: 8, timeout: 3 * time.Second}
		if err := run(context.Background(), o, &buf); err != nil {
			t.Fatal(err)
		}
		snap = FleetSnapshot{}
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatalf("frame is not JSON: %v\n%s", err, buf.String())
		}
		if traced() || time.Now().After(deadline) {
			break
		}
	}
	if snap.ShardsUp != 1 || len(snap.Shards) != 1 {
		t.Fatalf("shards = %d up of %d, want 1/1", snap.ShardsUp, len(snap.Shards))
	}
	row := snap.Shards[0]
	if !row.Up || row.Accepted < 8 {
		t.Errorf("row = %+v, want up with ≥8 accepted", row)
	}
	if row.P99IngestMs < 0 {
		t.Errorf("no p99 from live histogram: %+v", row)
	}
	if snap.TotalAccepted != row.Accepted {
		t.Errorf("rollup accepted %d != row %d", snap.TotalAccepted, row.Accepted)
	}
	if !traced() {
		t.Errorf("ingest trace %s missing from %d assembled trees", ack.TraceID, len(snap.TraceTrees))
	}

	// The text renderer must cope with the same frame.
	var txt bytes.Buffer
	renderTable(&txt, snap)
	if txt.Len() == 0 {
		t.Error("text table rendered nothing")
	}
}

// TestSnapshotDownNode: an unreachable node is a DOWN row, not an error.
func TestSnapshotDownNode(t *testing.T) {
	var buf bytes.Buffer
	o := options{nodes: []string{"http://127.0.0.1:1"}, jsonOut: true, timeout: 500 * time.Millisecond}
	if err := run(context.Background(), o, &buf); err != nil {
		t.Fatal(err)
	}
	var snap FleetSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ShardsUp != 0 || len(snap.Shards) != 1 || snap.Shards[0].Up || snap.Shards[0].Err == "" {
		t.Fatalf("down node row = %+v", snap.Shards)
	}
}

// TestP99FromBuckets: quantile read off synthetic cumulative buckets.
func TestP99FromBuckets(t *testing.T) {
	m := map[string]float64{
		`keybin2d_http_request_seconds_bucket{endpoint="ingest",le="0.001"}`: 90,
		`keybin2d_http_request_seconds_bucket{endpoint="ingest",le="0.01"}`:  99,
		`keybin2d_http_request_seconds_bucket{endpoint="ingest",le="0.1"}`:   100,
		`keybin2d_http_request_seconds_bucket{endpoint="ingest",le="+Inf"}`:  100,
		`keybin2d_http_request_seconds_bucket{endpoint="label",le="+Inf"}`:   50,
	}
	if got := p99FromBuckets(m, "keybin2d_http_request_seconds", "ingest"); got != 0.01 {
		t.Errorf("p99 = %v, want 0.01", got)
	}
	if got := p99FromBuckets(m, "keybin2d_http_request_seconds", "absent"); got != -1 {
		t.Errorf("absent endpoint p99 = %v, want -1", got)
	}
}

// TestAssembleTraces: one trace ID spanning two processes groups into a
// single tree and sorts ahead of single-node traces.
func TestAssembleTraces(t *testing.T) {
	shared := obs.NewTraceID()
	scrapes := []nodeScrape{
		{URL: "http://router", Traces: []obs.TraceJSON{
			{TraceID: shared, Name: "router_ingest", DurUs: 500},
			{TraceID: obs.NewTraceID(), Name: "merge_epoch"},
		}},
		{URL: "http://shard1", Traces: []obs.TraceJSON{
			{TraceID: shared, Name: "ingest_batch", DurUs: 300,
				Spans: []obs.SpanJSON{{Name: "wal_append"}, {Name: "apply"}}},
		}},
	}
	trees := assembleTraces(scrapes, 8)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2", len(trees))
	}
	top := trees[0]
	if top.TraceID != shared || top.Nodes != 2 {
		t.Fatalf("cross-node trace not first: %+v", top)
	}
	if top.Spans != 4 { // router root + shard root + 2 child spans
		t.Errorf("spans = %d, want 4", top.Spans)
	}
	if top.MaxDurUs != 500 {
		t.Errorf("max dur = %v, want 500", top.MaxDurUs)
	}
	if len(trees[0].Hops) != 2 {
		t.Errorf("hops = %v", trees[0].Hops)
	}
	if got := assembleTraces(scrapes, 1); len(got) != 1 || got[0].TraceID != shared {
		t.Errorf("cap=1 kept %+v", got)
	}
}
