package server_test

import (
	"context"
	"errors"
	"fmt"
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

// In-process crash simulations: a "crash" is a server that acknowledged
// batches and was then abandoned — its writer never ran (or never
// finished), exactly the state a kill -9 freezes a real daemon in. A
// second server opened on the same directories must recover everything
// that was acknowledged. The real-process variant (SIGKILL against a
// spawned daemon) lives in cmd/keybin2load -crash-cycles; these tests
// cover the same contract plus the corruption edges that need byte-level
// file surgery.

const crashDims = 3

func crashBatch(t *testing.T, pseq uint64, rows int) *linalg.Matrix {
	t.Helper()
	spec := synth.AutoMixture(3, crashDims, 6, 1, xrand.New(11))
	b, _ := spec.Sample(rows, xrand.New(100+int64(pseq)))
	return b
}

// bootCrash builds a WAL-enabled server plus an HTTP front end and a
// producer-tagged client. The server's writer is NOT started — acked
// batches stay queued, durable only in the WAL, like a daemon killed
// before its writer caught up.
func bootCrash(t *testing.T, dir string, mut func(*server.Config)) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	cfg := server.Config{
		Stream:         testStreamConfig(crashDims),
		QueueDepth:     32,
		WALDir:         filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "state.kb2s"),
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := client.New(hs.URL)
	c.SetProducer("p1")
	return srv, hs, c
}

func ackBatches(t *testing.T, c *client.Client, from, to uint64, rows int) {
	t.Helper()
	ctx := context.Background()
	for pseq := from; pseq <= to; pseq++ {
		ack, err := c.IngestSeq(ctx, crashBatch(t, pseq, rows), pseq)
		if err != nil {
			t.Fatalf("ingest pseq %d: %v", pseq, err)
		}
		if ack.Duplicate || ack.Seq == 0 {
			t.Fatalf("ingest pseq %d: unexpected ack %+v", pseq, ack)
		}
	}
}

// TestCrashRecoveryReplaysAckedBatches is the heart of the ack contract:
// five batches acknowledged but never applied (writer dead) must all be
// in the stream after recovery, with the producer horizon intact so a
// retry of the last batch dedupes and a new batch continues the line.
func TestCrashRecoveryReplaysAckedBatches(t *testing.T) {
	dir := t.TempDir()
	_, hs, c := bootCrash(t, dir, nil)
	ackBatches(t, c, 1, 5, 20)
	hs.Close() // crash: acked, queued, never applied

	srv2, _, c2 := bootCrash(t, dir, nil)
	st := srv2.Stats()
	if st.Seen != 100 {
		t.Fatalf("recovered %d points, want 100 (5 acked batches x 20)", st.Seen)
	}
	if st.Producers["p1"] != 5 {
		t.Fatalf("recovered producer horizon %d, want 5", st.Producers["p1"])
	}
	if st.WAL == nil || st.WAL.ReplayedBatches != 5 {
		t.Fatalf("wal stats after replay: %+v", st.WAL)
	}
	srv2.Start()
	ctx := context.Background()
	// A retry of an already-acked batch (its ack was "lost") must dedupe.
	ack, err := c2.IngestSeq(ctx, crashBatch(t, 5, 20), 5)
	if err != nil || !ack.Duplicate {
		t.Fatalf("retry of acked pseq 5: ack=%+v err=%v", ack, err)
	}
	// And the line continues.
	if ack, err = c2.IngestSeq(ctx, crashBatch(t, 6, 20), 6); err != nil || ack.Duplicate {
		t.Fatalf("pseq 6 after recovery: ack=%+v err=%v", ack, err)
	}
	if err := c2.WaitSeen(ctx, 120); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv2.Stop(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestCrashTornTailRecovered: a crash mid-append leaves the final WAL
// record torn. Recovery must truncate it away, keep every complete
// batch, and accept a re-send of the lost one as NEW (not a duplicate —
// its bytes never fully landed).
func TestCrashTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	_, hs, c := bootCrash(t, dir, nil)
	ackBatches(t, c, 1, 5, 20)
	hs.Close()

	// Tear the tail: cut bytes off the newest segment.
	walDir := filepath.Join(dir, "wal")
	names, err := server.OSFS.ReadDirNames(walDir)
	if err != nil || len(names) == 0 {
		t.Fatalf("wal dir: %v %v", names, err)
	}
	last := filepath.Join(walDir, names[len(names)-1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	srv2, _, c2 := bootCrash(t, dir, nil)
	st := srv2.Stats()
	if st.Seen != 80 {
		t.Fatalf("recovered %d points, want 80 (batch 5's record was torn)", st.Seen)
	}
	if st.Producers["p1"] != 4 {
		t.Fatalf("producer horizon %d after torn tail, want 4", st.Producers["p1"])
	}
	srv2.Start()
	ctx := context.Background()
	ack, err := c2.IngestSeq(ctx, crashBatch(t, 5, 20), 5)
	if err != nil || ack.Duplicate {
		t.Fatalf("re-send of torn batch: ack=%+v err=%v", ack, err)
	}
	if err := c2.WaitSeen(ctx, 100); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv2.Stop(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidLogCorruptionRefused: damage anywhere but the tail is not
// a crash artifact — the server must refuse to start with a typed
// WALCorruptError instead of silently skipping records.
func TestCrashMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	_, hs, c := bootCrash(t, dir, func(cfg *server.Config) {
		cfg.WALSegmentBytes = 1024 // several segments from 10 batches
	})
	ackBatches(t, c, 1, 10, 20)
	hs.Close()

	walDir := filepath.Join(dir, "wal")
	names, err := server.OSFS.ReadDirNames(walDir)
	if err != nil || len(names) < 2 {
		t.Fatalf("want a multi-segment wal, got %v (%v)", names, err)
	}
	oldest := filepath.Join(walDir, names[0])
	blob, err := os.ReadFile(oldest)
	if err != nil {
		t.Fatal(err)
	}
	blob[16+8+3] ^= 0xff // flip a payload byte in the first record
	if err := os.WriteFile(oldest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = server.New(server.Config{
		Stream:         testStreamConfig(crashDims),
		WALDir:         walDir,
		CheckpointPath: filepath.Join(dir, "state.kb2s"),
	})
	var ce *server.WALCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want WALCorruptError, got %v", err)
	}
}

// TestStaleWALRefused: a checkpoint that covers WAL history the log no
// longer holds means acknowledged data is gone — the server must refuse
// with WALStaleError rather than resurrect a partial past.
func TestStaleWALRefused(t *testing.T) {
	dir := t.TempDir()
	srv, hs, c := bootCrash(t, dir, nil)
	srv.Start()
	ackBatches(t, c, 1, 5, 20)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitSeen(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if err := srv.Stop(ctx); err != nil { // final checkpoint covers seq 5
		t.Fatal(err)
	}
	hs.Close()

	// Swap in an older, shorter WAL: wipe the directory and rebuild one
	// that ends at seq 2 while the checkpoint covers seq 5.
	walDir := filepath.Join(dir, "wal")
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	w, err := server.OpenWAL(server.WALConfig{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Append([]byte("old-history")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = server.New(server.Config{
		Stream:         testStreamConfig(crashDims),
		WALDir:         walDir,
		CheckpointPath: filepath.Join(dir, "state.kb2s"),
	})
	var se *server.WALStaleError
	if !errors.As(err, &se) {
		t.Fatalf("want WALStaleError, got %v", err)
	}
	if se.CoveredSeq != 5 || se.LastSeq != 2 {
		t.Fatalf("stale detail covered=%d last=%d, want 5/2", se.CoveredSeq, se.LastSeq)
	}
}

// TestWedgedWALFailsIngestAndReadiness: once a WAL write fails, no later
// batch may be acknowledged (the tail is untrustworthy) and /readyz must
// go unready so an orchestrator rotates the instance out.
func TestWedgedWALFailsIngestAndReadiness(t *testing.T) {
	dir := t.TempDir()
	ffs := &server.FaultFS{Inner: server.OSFS}
	srv, _, c := bootCrash(t, dir, func(cfg *server.Config) {
		cfg.FS = ffs
	})
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ackBatches(t, c, 1, 2, 10)
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("healthy server unready: %v", err)
	}

	ffs.FailSyncs(-1)
	if _, err := c.IngestSeq(ctx, crashBatch(t, 3, 10), 3); err == nil {
		t.Fatal("ingest acked despite failed WAL fsync")
	}
	if _, err := c.IngestSeq(ctx, crashBatch(t, 4, 10), 4); err == nil {
		t.Fatal("wedged WAL acked a later batch")
	}
	if err := c.Ready(ctx); err == nil {
		t.Fatal("/readyz reports ready with a wedged WAL")
	}
	st := srv.Stats()
	if st.WAL == nil || st.WAL.Err == "" {
		t.Fatalf("stats hide the wedged WAL: %+v", st.WAL)
	}
	// Unwedging requires operator action (restart); Stop still drains the
	// two batches that were acked before the fault.
	ffs.FailSyncs(0)
	if err := c.WaitSeen(ctx, 20); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWritesAreFsynced pins the satellite bugfix: checkpoints
// must fsync both the tmp file and the parent directory, and a failed
// rename must leave no checkpoint behind rather than a silent success.
func TestCheckpointWritesAreFsynced(t *testing.T) {
	dir := t.TempDir()
	ffs := &server.FaultFS{Inner: server.OSFS}
	ckpt := filepath.Join(dir, "state.kb2s")
	srv, err := server.New(server.Config{
		Stream:         testStreamConfig(crashDims),
		CheckpointPath: ckpt,
		FS:             ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Ingest(ctx, crashBatch(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitSeen(ctx, 300); err != nil {
		t.Fatal(err)
	}
	syncsBefore, dirsBefore := ffs.Syncs.Load(), ffs.SyncDirs.Load()
	if err := srv.Stop(ctx); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}
	if ffs.Syncs.Load() <= syncsBefore {
		t.Fatal("checkpoint never fsynced its file")
	}
	if ffs.SyncDirs.Load() <= dirsBefore {
		t.Fatal("checkpoint never fsynced the parent directory")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing after fsynced write: %v", err)
	}

	// Failure path: a rename that fails must not leave a checkpoint (or a
	// counted success) behind.
	dir2 := t.TempDir()
	ffs2 := &server.FaultFS{Inner: server.OSFS}
	ckpt2 := filepath.Join(dir2, "state.kb2s")
	srv2, err := server.New(server.Config{
		Stream:         testStreamConfig(crashDims),
		CheckpointPath: ckpt2,
		FS:             ffs2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	c2 := client.New(hs2.URL)
	srv2.Start()
	if _, err := c2.Ingest(ctx, crashBatch(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	if err := c2.WaitSeen(ctx, 300); err != nil {
		t.Fatal(err)
	}
	ffs2.FailRenames(-1)
	if err := srv2.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if n := srv2.Stats().Checkpoints; n != 0 {
		t.Fatalf("failed rename counted as %d checkpoints", n)
	}
	if _, err := os.Stat(ckpt2); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed rename left a checkpoint: %v", err)
	}
}

// TestCrashGroupCommitDurable pins the group-commit ack contract: acks
// whose fsync was coalesced onto another producer's sync are exactly as
// durable as the ones that led it. Many producers ingest concurrently
// (so waits pile up behind shared fsyncs), the server "crashes" with its
// writer never started, and recovery must replay every acked batch for
// every producer.
func TestCrashGroupCommitDurable(t *testing.T) {
	dir := t.TempDir()
	_, hs, _ := bootCrash(t, dir, nil)

	const producers, perProducer, rows = 4, 6, 10
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			ctx := context.Background()
			c := client.New(hs.URL)
			c.SetProducer(fmt.Sprintf("gc-%d", p))
			for pseq := uint64(1); pseq <= perProducer; pseq++ {
				ack, err := c.IngestSeq(ctx, crashBatch(t, pseq, rows), pseq)
				if err != nil {
					errs <- fmt.Errorf("producer %d pseq %d: %w", p, pseq, err)
					return
				}
				if ack.Duplicate || ack.Seq == 0 {
					errs <- fmt.Errorf("producer %d pseq %d: bad ack %+v", p, pseq, ack)
					return
				}
			}
			errs <- nil
		}(p)
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	hs.Close() // crash: every batch acked, none applied

	srv2, _, _ := bootCrash(t, dir, nil)
	st := srv2.Stats()
	if want := int64(producers * perProducer * rows); st.Seen != want {
		t.Fatalf("recovered %d points, want %d", st.Seen, want)
	}
	for p := 0; p < producers; p++ {
		name := fmt.Sprintf("gc-%d", p)
		if st.Producers[name] != perProducer {
			t.Fatalf("producer %s horizon %d after recovery, want %d", name, st.Producers[name], perProducer)
		}
	}
	if st.WAL == nil || st.WAL.ReplayedBatches != producers*perProducer {
		t.Fatalf("wal stats after replay: %+v", st.WAL)
	}
}

// TestStopRacesLiveQueries drives /label and /model from many goroutines
// while Stop drains underneath — the -race run proves the read path and
// the shutdown path share no unsynchronized state.
func TestStopRacesLiveQueries(t *testing.T) {
	dir := t.TempDir()
	srv, _, c := bootCrash(t, dir, nil)
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Enough points for a model so /label and /model have real work.
	ackBatches(t, c, 1, 3, 200)
	if err := c.WaitSeen(ctx, 600); err != nil {
		t.Fatal(err)
	}

	qctx, qcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			b := crashBatch(t, uint64(1000+g), 32)
			for qctx.Err() == nil {
				// Errors are expected once Stop lands; the race detector
				// is the assertion here.
				c.Label(qctx, b)
				c.Model(qctx)
				c.Stats(qctx)
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let the queries overlap the drain
	if err := srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	qcancel()
	for g := 0; g < 4; g++ {
		<-done
	}
	// Post-drain reads still serve from the final snapshot.
	if st := srv.Stats(); !st.Draining || st.Seen != 600 {
		t.Fatalf("post-stop stats: %+v", st)
	}
}
