package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// node bundles a server with its HTTP front so tests can build small
// clusters and tear them down in order.
type node struct {
	srv *server.Server
	ts  *httptest.Server
	c   *client.Client
}

func startNode(t *testing.T, cfg server.Config) *node {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	srv.Start()
	return &node{srv: srv, ts: ts, c: client.New(ts.URL)}
}

func (n *node) stop(t *testing.T, ctx context.Context) {
	t.Helper()
	n.ts.Close()
	if err := n.srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// rawLabel POSTs an encoded probe and returns the exact response bytes —
// the replication tier's serving claim is byte-identical /label answers,
// so the assertion compares bytes, not decoded fields.
func rawLabel(t *testing.T, base string, probe []byte) []byte {
	t.Helper()
	resp, err := http.Post(base+"/label", "application/octet-stream", bytes.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label → %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestFollowerClusterServesIdenticalLabels is the core replication e2e: a
// primary with a WAL, two followers tailing it, and a standalone node fed
// the same batches. Every node must answer a probe /label with the same
// bytes, the followers must refuse ingest with the typed 421 redirect,
// and the replica gauges must appear on a follower's /metrics.
func TestFollowerClusterServesIdenticalLabels(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	primary := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(dir, "pwal"),
	})
	defer primary.stop(t, ctx)
	followerCfg := func() server.Config {
		return server.Config{
			Stream:     testStreamConfig(3),
			FollowURL:  primary.ts.URL,
			FollowPoll: 200 * time.Millisecond,
		}
	}
	f1 := startNode(t, followerCfg())
	defer f1.stop(t, ctx)
	f2 := startNode(t, followerCfg())
	defer f2.stop(t, ctx)
	solo := startNode(t, server.Config{Stream: testStreamConfig(3)})
	defer solo.stop(t, ctx)

	// Identical sequential traffic into the primary and the standalone
	// node: replication must put every node in the same state.
	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(11))
	rng := xrand.New(12)
	const batches, perBatch = 8, 250
	for i := 0; i < batches; i++ {
		batch, _ := spec.Sample(perBatch, rng)
		if _, err := primary.c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := solo.c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	const total = batches * perBatch
	for _, n := range []*node{primary, f1, f2, solo} {
		if err := n.c.WaitSeen(ctx, total); err != nil {
			t.Fatal(err)
		}
	}

	probeM, _ := spec.Sample(64, xrand.New(13))
	probe := server.EncodeBatch(probeM)
	want := rawLabel(t, primary.ts.URL, probe)
	for i, n := range []*node{f1, f2, solo} {
		if got := rawLabel(t, n.ts.URL, probe); !bytes.Equal(want, got) {
			t.Fatalf("node %d /label diverged:\nprimary: %s\nnode:    %s", i, want, got)
		}
	}

	// Role bookkeeping: the follower reports its upstream and a replication
	// horizon that has caught the primary's.
	pst := primary.srv.Stats()
	if pst.Role != "primary" || pst.AppliedSeq != batches {
		t.Fatalf("primary stats role=%q applied=%d, want primary/%d", pst.Role, pst.AppliedSeq, batches)
	}
	// WaitSeen returns as the last 'R' frame lands, possibly a beat before
	// the same response's 'E' frame updates the horizon bookkeeping — so
	// the horizon assertions poll briefly instead of racing it.
	var fst server.Stats
	horizonDeadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		fst, err = f1.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fst.AppliedSeq == batches && fst.PrimaryLastSeq == batches && fst.ReplicaLagSeconds == 0 {
			break
		}
		if time.Now().After(horizonDeadline) {
			t.Fatalf("follower horizon never settled: %+v", fst)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fst.Role != "follower" || fst.Primary != primary.ts.URL {
		t.Fatalf("follower stats role=%q primary=%q", fst.Role, fst.Primary)
	}

	// The replica gauges are the load test's mid-run observability; they
	// must be on the follower's /metrics and absent from the primary's.
	mf, err := f1.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := mf["keybin2d_replica_applied_seq"]; !ok || got != float64(batches) {
		t.Fatalf("keybin2d_replica_applied_seq = %v (present=%v), want %d", got, ok, batches)
	}
	if lag, ok := mf["keybin2d_replica_lag_seconds"]; !ok || lag != 0 {
		t.Fatalf("keybin2d_replica_lag_seconds = %v (present=%v), want 0", lag, ok)
	}
	mp, err := primary.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mp["keybin2d_replica_applied_seq"]; ok {
		t.Fatal("primary exports follower gauges")
	}

	// Writes aimed at a replica are redirected on the wire (421 +
	// X-KB2-Primary) and redeemed by the client, which follows the hint
	// for one hop: the batch lands on the primary, not in an error.
	before, err := primary.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := spec.Sample(10, rng)
	if _, err := f1.c.Ingest(ctx, batch); err != nil {
		t.Fatalf("follower ingest should follow the primary hint: %v", err)
	}
	if err := primary.c.WaitSeen(ctx, before.Seen+10); err != nil {
		t.Fatalf("followed batch never reached the primary: %v", err)
	}
	resp, err := http.Post(f1.ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest || resp.Header.Get("X-KB2-Primary") != primary.ts.URL {
		t.Fatalf("raw follower ingest → %d (X-KB2-Primary %q)", resp.StatusCode, resp.Header.Get("X-KB2-Primary"))
	}
}

// sameLabels compares two /label response bodies on labels and cluster
// count only. Model generation is incarnation-relative — a node restored
// from a checkpoint or bootstrapped from a snapshot restarts its refit
// numbering at 1 — so restore-path tests must not compare it.
func sameLabels(t *testing.T, want, got []byte) {
	t.Helper()
	type labelBody struct {
		Labels   []int `json:"labels"`
		Clusters int   `json:"clusters"`
	}
	var w, g labelBody
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if w.Clusters != g.Clusters || len(w.Labels) != len(g.Labels) {
		t.Fatalf("label shape diverged: %d clusters/%d labels vs %d/%d",
			w.Clusters, len(w.Labels), g.Clusters, len(g.Labels))
	}
	for i := range w.Labels {
		if w.Labels[i] != g.Labels[i] {
			t.Fatalf("label %d diverged: %d vs %d", i, w.Labels[i], g.Labels[i])
		}
	}
}

// TestFollowerResumesFromCheckpoint: a restarted follower must pick its
// tail up from its checkpoint's covered sequence — not refetch history
// from zero — and then converge on traffic that arrived while it was
// down.
func TestFollowerResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	primary := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(dir, "pwal"),
	})
	defer primary.stop(t, ctx)
	fcfg := server.Config{
		Stream:          testStreamConfig(3),
		FollowURL:       primary.ts.URL,
		FollowPoll:      100 * time.Millisecond,
		CheckpointPath:  filepath.Join(dir, "follower.kb2s"),
		CheckpointEvery: time.Hour, // only the shutdown checkpoint
	}
	f := startNode(t, fcfg)

	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(21))
	rng := xrand.New(22)
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			batch, _ := spec.Sample(250, rng)
			if _, err := primary.c.Ingest(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(4)
	if err := f.c.WaitSeen(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	f.stop(t, ctx) // writes the follower's final checkpoint

	ingest(2) // arrives while the follower is down

	f2srv, err := server.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Before any tailing: the restored state must already hold everything
	// the checkpoint covered, which is what the next tail request resumes
	// from.
	st := f2srv.Stats()
	if st.AppliedSeq != 4 || st.Seen != 1000 {
		t.Fatalf("restored follower applied=%d seen=%d, want 4/1000", st.AppliedSeq, st.Seen)
	}
	f2 := &node{srv: f2srv, ts: httptest.NewServer(f2srv.Handler()), c: nil}
	f2.c = client.New(f2.ts.URL)
	f2srv.Start()
	defer f2.stop(t, ctx)
	if err := f2.c.WaitSeen(ctx, 1500); err != nil {
		t.Fatal(err)
	}
	probeM, _ := spec.Sample(64, xrand.New(23))
	probe := server.EncodeBatch(probeM)
	sameLabels(t, rawLabel(t, primary.ts.URL, probe), rawLabel(t, f2.ts.URL, probe))
}

// TestFollowerPromotion kills the primary and promotes the follower: the
// promoted node must report the primary role, hold every acked producer
// sequence, refuse a second promotion, dedupe a retried pre-promotion
// batch, and accept new durable writes numbered from its replayed
// horizon.
func TestFollowerPromotion(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	primary := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(dir, "pwal"),
	})
	f := startNode(t, server.Config{
		Stream:     testStreamConfig(3),
		FollowURL:  primary.ts.URL,
		FollowPoll: 100 * time.Millisecond,
		WALDir:     filepath.Join(dir, "fwal"), // opened at promotion
	})
	defer f.stop(t, ctx)

	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(31))
	mkBatch := func(pseq uint64) *linalg.Matrix {
		b, _ := spec.Sample(200, xrand.New(31+int64(pseq)))
		return b
	}
	primary.c.SetProducer("prod")
	const acked = 5
	for pseq := uint64(1); pseq <= acked; pseq++ {
		if _, err := primary.c.IngestSeq(ctx, mkBatch(pseq), pseq); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.c.WaitSeen(ctx, acked*200); err != nil {
		t.Fatal(err)
	}

	// A primary refuses /promote with 409 while it is one.
	if _, err := primary.c.Promote(ctx); err == nil {
		t.Fatal("primary accepted /promote")
	}

	// The chaos event: the primary goes away without a drain (the HTTP
	// front drops; the follower's tail starts failing and backing off).
	primary.stop(t, ctx)

	appliedSeq, err := f.c.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if appliedSeq != acked {
		t.Fatalf("promoted at seq %d, want %d", appliedSeq, acked)
	}
	st, err := f.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || !st.Promoted {
		t.Fatalf("promoted node role=%q promoted=%v", st.Role, st.Promoted)
	}
	if st.Producers["prod"] != acked {
		t.Fatalf("promoted node lost acked batches: producer seq %d, want %d", st.Producers["prod"], acked)
	}
	if _, err := f.c.Promote(ctx); err == nil {
		t.Fatal("second promotion accepted")
	}

	// The idempotency horizon must survive promotion: a retry of an
	// already-acked batch is re-acked as a duplicate, never re-applied.
	f.c.SetProducer("prod")
	ack, err := f.c.IngestSeq(ctx, mkBatch(acked), acked)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Duplicate {
		t.Fatalf("pre-promotion batch re-applied: %+v", ack)
	}

	// New writes flow, numbered past the replicated horizon into the WAL
	// the promotion opened.
	for pseq := uint64(acked + 1); pseq <= acked+3; pseq++ {
		ack, err := f.c.IngestSeq(ctx, mkBatch(pseq), pseq)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Seq != pseq {
			t.Fatalf("post-promotion WAL seq %d for pseq %d", ack.Seq, pseq)
		}
	}
	if err := f.c.WaitSeen(ctx, (acked+3)*200); err != nil {
		t.Fatal(err)
	}
	if st := f.srv.Stats(); st.WAL == nil || st.WAL.LastSeq != acked+3 {
		t.Fatalf("promoted node's WAL: %+v", st.WAL)
	}
}

// TestTailTruncationBootstrapsFollower: once checkpoints truncate the
// primary's WAL history, a from-zero tail must answer 410 Gone with the
// oldest surviving sequence, and a fresh follower must still converge by
// bootstrapping from GET /snapshot.
func TestTailTruncationBootstrapsFollower(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	primary := startNode(t, server.Config{
		Stream:          testStreamConfig(3),
		WALDir:          filepath.Join(dir, "pwal"),
		WALSegmentBytes: 4096,
		CheckpointPath:  filepath.Join(dir, "primary.kb2s"),
		CheckpointEvery: 100 * time.Millisecond,
	})
	defer primary.stop(t, ctx)

	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(41))
	rng := xrand.New(42)
	const batches, perBatch = 12, 250
	for i := 0; i < batches; i++ {
		batch, _ := spec.Sample(perBatch, rng)
		if _, err := primary.c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.c.WaitSeen(ctx, batches*perBatch); err != nil {
		t.Fatal(err)
	}

	// Wait for a checkpoint to cover and truncate the log's head, then pin
	// the 410 contract: oldest_seq names where history now starts.
	var oldest uint64
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(primary.ts.URL + "/wal?from=0&max_bytes=1024")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusGone {
			var body struct {
				OldestSeq uint64 `json:"oldest_seq"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			oldest = body.OldestSeq
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("WAL head never truncated (stats: %+v)", primary.srv.Stats().WAL)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if oldest <= 1 {
		t.Fatalf("410 names oldest_seq %d, want > 1", oldest)
	}

	// A brand-new follower has no history at all: it must take the 410,
	// pull the snapshot, and converge to the full volume anyway.
	f := startNode(t, server.Config{
		Stream:     testStreamConfig(3),
		FollowURL:  primary.ts.URL,
		FollowPoll: 100 * time.Millisecond,
	})
	defer f.stop(t, ctx)
	if err := f.c.WaitSeen(ctx, batches*perBatch); err != nil {
		t.Fatal(err)
	}
	probeM, _ := spec.Sample(64, xrand.New(43))
	probe := server.EncodeBatch(probeM)
	sameLabels(t, rawLabel(t, primary.ts.URL, probe), rawLabel(t, f.ts.URL, probe))
}

// TestWALTailShipsStoredRecords: GET /wal is the primary's log bytes, not
// a re-framing of them — a tail from seq 0 of a one-segment log equals
// that segment file after its 16-byte header, byte for byte, and its
// headers name the type and the primary's newest sequence.
func TestWALTailShipsStoredRecords(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	walDir := filepath.Join(t.TempDir(), "wal")
	primary := startNode(t, server.Config{Stream: testStreamConfig(3), WALDir: walDir})
	defer primary.stop(t, ctx)
	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(31))
	rng := xrand.New(32)
	for i := 0; i < 5; i++ {
		batch, _ := spec.Sample(100, rng)
		if _, err := primary.c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(primary.ts.URL + "/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("tail → %d: %v", resp.StatusCode, err)
	}
	if ct, last := resp.Header.Get("Content-Type"), resp.Header.Get("X-KB2-WAL-Last-Seq"); ct != "application/x-kb2-wal" || last != "5" {
		t.Fatalf("tail headers: Content-Type %q, X-KB2-WAL-Last-Seq %q; want application/x-kb2-wal and 5", ct, last)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, found %v (%v)", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, seg[16:]) {
		t.Fatalf("tail body (%d bytes) is not the segment's records (%d bytes)", len(body), len(seg)-16)
	}
}
