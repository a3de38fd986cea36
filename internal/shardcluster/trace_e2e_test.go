package shardcluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"keybin2/internal/client"
	"keybin2/internal/linalg"
	"keybin2/internal/obs"
	"keybin2/internal/shardcluster"
)

func fetchTraces(t *testing.T, base string) []obs.TraceJSON {
	t.Helper()
	resp, err := http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/trace: %d", base, resp.StatusCode)
	}
	var body struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Traces
}

func traceByID(traces []obs.TraceJSON, id, name string) *obs.TraceJSON {
	for i := range traces {
		if traces[i].TraceID == id && traces[i].Name == name {
			return &traces[i]
		}
	}
	return nil
}

// TestIngestTraceSpansRouterAndShard is the tentpole assertion: one
// ingest pushed through the router yields a SINGLE trace ID that appears
// on the client's ack, in the router's trace ring (joined to the client's
// root span), and in the owning shard's trace ring (joined to the
// router's span) — the full cross-process path, reconstructable from the
// fleet's /trace endpoints alone.
func TestIngestTraceSpansRouterAndShard(t *testing.T) {
	const dims = 3
	shardTS := map[string]*httptest.Server{}
	var urls []string
	for _, n := range []string{"s1", "s2", "s3"} {
		_, ts := newShard(t, n, n, dims)
		shardTS[ts.URL] = ts
		urls = append(urls, ts.URL)
	}
	r, err := shardcluster.New(shardcluster.Config{
		Shards: urls, Stream: shardConfig(dims), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := httptest.NewServer(r.Handler())
	defer rt.Close()

	const producer = "trace-producer"
	owner := r.OwnerOf(producer)
	if owner == "" {
		t.Fatal("no shard owns the producer")
	}

	c := client.New(rt.URL)
	c.SetProducer(producer)
	ack, err := c.IngestSeq(context.Background(), linalg.NewMatrix(6, dims), c.NextBatchSeq())
	if err != nil {
		t.Fatal(err)
	}
	if ack.TraceID == "" {
		t.Fatal("client ack carries no trace id")
	}

	// Router hop: joined to the client (non-empty parent), with the proxy
	// attempt recorded as a span.
	rtr := traceByID(fetchTraces(t, rt.URL), ack.TraceID, "router_ingest")
	if rtr == nil {
		t.Fatalf("trace %s not on router /trace", ack.TraceID)
	}
	if rtr.ParentID == "" {
		t.Errorf("router trace did not join the client's span: %+v", rtr)
	}
	foundProxy := false
	for _, sp := range rtr.Spans {
		if sp.Name == "proxy" {
			foundProxy = true
		}
	}
	if !foundProxy {
		t.Errorf("router trace has no proxy span: %+v", rtr.Spans)
	}

	// Shard hop: the owning shard's ingest pipeline trace shares the ID
	// and is parented under the router's root span.
	// The ack is the enqueue; the shard publishes the trace once its writer
	// has applied the batch.
	var str *obs.TraceJSON
	waitFor(t, "trace "+ack.TraceID+" on owning shard "+owner+" /trace", func() bool {
		str = traceByID(fetchTraces(t, owner), ack.TraceID, "ingest_batch")
		return str != nil
	})
	if str.ParentID != rtr.SpanID {
		t.Errorf("shard trace parent %q != router span %q", str.ParentID, rtr.SpanID)
	}
	for _, other := range urls {
		if other == owner {
			continue
		}
		if got := traceByID(fetchTraces(t, other), ack.TraceID, "ingest_batch"); got != nil {
			t.Errorf("trace leaked to non-owning shard %s", other)
		}
	}
}

// TestMergeTraceSpansCollective: a merge epoch is one trace — the
// router's merge_epoch root with pull/fold/install spans, and every
// shard's hist_export and hist_install traces joined under its ID.
func TestMergeTraceSpansCollective(t *testing.T) {
	const dims = 3
	var urls []string
	for _, n := range []string{"m1", "m2"} {
		_, ts := newShard(t, n, n, dims)
		urls = append(urls, ts.URL)
	}
	r, err := shardcluster.New(shardcluster.Config{
		Shards: urls, Stream: shardConfig(dims), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := httptest.NewServer(r.Handler())
	defer rt.Close()

	ctx := context.Background()
	for _, u := range urls {
		cl := client.New(u)
		if _, err := cl.Ingest(ctx, linalg.NewMatrix(40, dims)); err != nil {
			t.Fatal(err)
		}
		if err := cl.WaitSeen(ctx, 40); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.MergeOnce(ctx); err != nil {
		t.Fatal(err)
	}

	var mergeID string
	for _, tr := range fetchTraces(t, rt.URL) {
		if tr.Name == "merge_epoch" {
			mergeID = tr.TraceID
			var names []string
			for _, sp := range tr.Spans {
				names = append(names, sp.Name)
			}
			joined := strings.Join(names, ",")
			for _, want := range []string{"hist_pull", "fold", "install"} {
				if !strings.Contains(joined, want) {
					t.Errorf("merge trace lacks %s span: %s", want, joined)
				}
			}
		}
	}
	if mergeID == "" {
		t.Fatal("no merge_epoch trace on router")
	}
	for _, u := range urls {
		traces := fetchTraces(t, u)
		if traceByID(traces, mergeID, "hist_export") == nil {
			t.Errorf("shard %s has no hist_export under merge trace %s", u, mergeID)
		}
		if traceByID(traces, mergeID, "hist_install") == nil {
			t.Errorf("shard %s has no hist_install under merge trace %s", u, mergeID)
		}
	}
}
