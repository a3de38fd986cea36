package server_test

import (
	"context"
	"errors"
	"maps"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// Recovery rebuilds exactly what a node acknowledged, or refuses loudly:
// a log that does not continue the checkpoint is never replayed over its
// hole, and promotion leaves a replica restartable at the horizon it
// accepted writes from.

// TestBootRefusesWALPastCheckpoint: a log whose oldest record lies past
// the checkpoint's covered sequence lost acknowledged history. Boot must
// refuse with a typed error instead of replaying the tail over the hole.
func TestBootRefusesWALPastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, hs, c := bootCrash(t, dir, func(cfg *server.Config) {
		cfg.WALSegmentBytes = 1024 // about two batches per segment
	})
	srv.Start()
	ackBatches(t, c, 1, 5, 20)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitSeen(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if err := srv.Stop(ctx); err != nil { // checkpoint covers seq 5, truncates the head
		t.Fatal(err)
	}
	hs.Close()
	// The checkpoint goes; the truncated log stays.
	if err := os.Remove(filepath.Join(dir, "state.kb2s")); err != nil {
		t.Fatal(err)
	}

	_, err := server.New(server.Config{
		Stream:         testStreamConfig(crashDims),
		WALDir:         filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "state.kb2s"),
	})
	var te *server.TailTruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("want TailTruncatedError, got %v", err)
	}
	if te.FromSeq != 0 || te.OldestSeq <= 1 {
		t.Fatalf("hole reported as records after %d, log from %d", te.FromSeq, te.OldestSeq)
	}
}

// restartAt opens a second server on cfg's directories as a primary — the
// state a kill -9 of the first one leaves behind — and returns it unstarted.
func restartAt(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.FollowURL = ""
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	return srv
}

// TestPromotedFollowerCrashKeepsReplicatedPrefix: a follower promoted and
// killed before its first periodic checkpoint must restart with every
// replicated point, not just the writes it took as primary. Promotion
// checkpoints the replicated prefix before the node turns primary.
func TestPromotedFollowerCrashKeepsReplicatedPrefix(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	primary := startNode(t, server.Config{Stream: testStreamConfig(3), WALDir: filepath.Join(dir, "pwal")})
	fcfg := server.Config{
		Stream:          testStreamConfig(3),
		FollowURL:       primary.ts.URL,
		FollowPoll:      100 * time.Millisecond,
		WALDir:          filepath.Join(dir, "fwal"),
		CheckpointPath:  filepath.Join(dir, "follower.kb2s"),
		CheckpointEvery: time.Hour, // no periodic checkpoint before the crash
	}
	f := startNode(t, fcfg)
	defer f.stop(t, ctx)

	primary.c.SetProducer("prod")
	for pseq := uint64(1); pseq <= 4; pseq++ {
		if _, err := primary.c.IngestSeq(ctx, crashBatch(t, pseq, 200), pseq); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.c.WaitSeen(ctx, 800); err != nil {
		t.Fatal(err)
	}
	primary.stop(t, ctx)
	if _, err := f.c.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	f.c.SetProducer("prod")
	if _, err := f.c.IngestSeq(ctx, crashBatch(t, 5, 200), 5); err != nil {
		t.Fatal(err)
	}

	// Crash: the promoted node's files as they are now, nothing drained.
	srv2 := restartAt(t, fcfg)
	defer srv2.Stop(ctx)
	st := srv2.Stats()
	if st.Seen != 1000 || st.AppliedSeq != 5 || st.Producers["prod"] != 5 {
		t.Fatalf("restarted promoted node: seen=%d applied=%d producer=%d, want 1000/5/5",
			st.Seen, st.AppliedSeq, st.Producers["prod"])
	}
}

// TestFailBackPromotionRestarts: an ex-primary fenced behind B, tailing
// B, and later re-promoted over its own older log must stay restartable.
// The re-promotion forwards the log past B's writes; the next record must
// open a fresh segment (and the promotion checkpoint drop the superseded
// one) rather than land behind the old records in the same file.
func TestFailBackPromotionRestarts(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	acfg := server.Config{
		Stream:          testStreamConfig(3),
		WALDir:          filepath.Join(dir, "awal"),
		CheckpointPath:  filepath.Join(dir, "a.kb2s"),
		CheckpointEvery: time.Hour,
	}
	a := startNode(t, acfg)
	defer a.stop(t, ctx)
	b := startNode(t, server.Config{
		Stream:     testStreamConfig(3),
		FollowURL:  a.ts.URL,
		FollowPoll: 100 * time.Millisecond,
		WALDir:     filepath.Join(dir, "bwal"),
	})
	defer b.stop(t, ctx)

	ingest := func(c *client.Client, from, to uint64) {
		t.Helper()
		for pseq := from; pseq <= to; pseq++ {
			if _, err := c.IngestSeq(ctx, crashBatch(t, pseq, 200), pseq); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.c.SetProducer("prod")
	b.c.SetProducer("prod")
	ingest(a.c, 1, 3)
	if err := b.c.WaitSeen(ctx, 600); err != nil {
		t.Fatal(err)
	}
	// Failover to B; A is fenced behind it and tails B's new writes.
	if _, _, err := b.c.PromoteEpoch(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.c.Fence(ctx, 2, b.ts.URL); err != nil {
		t.Fatal(err)
	}
	ingest(b.c, 4, 5)
	if err := a.c.WaitSeen(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	// Fail-back: A is promoted again, over its own log that ends at seq 3.
	if _, _, err := a.c.PromoteEpoch(ctx, 3); err != nil {
		t.Fatal(err)
	}
	ingest(a.c, 6, 6)

	srv2 := restartAt(t, acfg)
	defer srv2.Stop(ctx)
	if st := srv2.Stats(); st.Seen != 1200 || st.AppliedSeq != 6 || st.Producers["prod"] != 6 {
		t.Fatalf("restarted fail-back primary: seen=%d applied=%d producer=%d, want 1200/6/6",
			st.Seen, st.AppliedSeq, st.Producers["prod"])
	}
	hs := httptest.NewServer(srv2.Handler())
	defer hs.Close()
	if err := client.New(hs.URL).Ready(ctx); err != nil {
		t.Fatalf("restarted fail-back primary unready: %v", err)
	}
}

// refusedWarmup starts a WAL'd primary whose stream takes its ranges from
// a 300-point warm-up, then acks four batches of 100 points from producer
// p1, the first holding +Inf. The warm-up completes inside batch 3, and
// the stream refuses it and every batch after: no histogram range holds
// +Inf. The live writer logs each refusal and moves on, so the node still
// applies through seq 4.
func refusedWarmup(t *testing.T, ctx context.Context, dir string) (*node, server.Config) {
	t.Helper()
	cfg := server.Config{
		Stream: core.StreamConfig{Config: core.Config{Seed: 7, Trials: 2}, Dims: 3, Warmup: 300, Period: 300},
		WALDir: filepath.Join(dir, "wal"),
	}
	primary := startNode(t, cfg)
	primary.c.SetProducer("p1")
	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(31))
	rng := xrand.New(32)
	for pseq := uint64(1); pseq <= 4; pseq++ {
		batch, _ := spec.Sample(100, rng)
		if pseq == 1 {
			batch.Data[0] = math.Inf(1)
		}
		if _, err := primary.c.IngestSeq(ctx, batch, pseq); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, ctx, primary.srv, 4)
	return primary, cfg
}

// stopRefused stops a node of refusedWarmup's fleet. Stop reports the
// stream's last refusal, which is expected here.
func stopRefused(ctx context.Context, n *node) {
	n.ts.Close()
	n.srv.Stop(ctx)
}

// waitApplied polls until srv has applied WAL sequence seq.
func waitApplied(t *testing.T, ctx context.Context, srv *server.Server, seq uint64) {
	t.Helper()
	for srv.Stats().AppliedSeq < seq {
		select {
		case <-ctx.Done():
			t.Fatalf("applied seq %d, want %d", srv.Stats().AppliedSeq, seq)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRestartReplaysRefusedBatch: WAL replay passes over a batch the
// stream refuses as the live writer did, so a restart rebuilds the live
// process's state instead of failing at the refused record.
func TestRestartReplaysRefusedBatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	primary, cfg := refusedWarmup(t, ctx, t.TempDir())
	live := primary.srv.Stats()
	stopRefused(ctx, primary)

	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	got := srv.Stats()
	if got.Seen != live.Seen || got.AppliedSeq != live.AppliedSeq || !maps.Equal(got.Producers, live.Producers) {
		t.Fatalf("restarted seen %d, applied seq %d, producers %v; live %d, %d, %v",
			got.Seen, got.AppliedSeq, got.Producers, live.Seen, live.AppliedSeq, live.Producers)
	}
}

// TestFollowerPassesRefusedBatch: the follower tail applies through the
// same step, so it passes the refused batches as the primary did and
// reaches the primary's applied seq with the primary's point count.
func TestFollowerPassesRefusedBatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()
	primary, cfg := refusedWarmup(t, ctx, dir)
	defer stopRefused(ctx, primary)
	cfg.WALDir = ""
	cfg.FollowURL = primary.ts.URL
	cfg.FollowPoll = 100 * time.Millisecond
	f := startNode(t, cfg)
	defer stopRefused(ctx, f)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	waitApplied(t, wctx, f.srv, primary.srv.Stats().AppliedSeq)
	if got, want := f.srv.Stats().Seen, primary.srv.Stats().Seen; got != want {
		t.Fatalf("follower seen %d, primary %d", got, want)
	}
}
