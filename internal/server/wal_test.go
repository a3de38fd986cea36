package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestWAL(t *testing.T, dir string, mut func(*WALConfig)) *WAL {
	t.Helper()
	cfg := WALConfig{Dir: dir, Fsync: FsyncAlways}
	if mut != nil {
		mut(&cfg)
	}
	w, err := OpenWAL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func appendN(t *testing.T, w *WAL, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("%s-%04d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// collectReplay reads every record past from the way replay does: a
// cursor at from, then ReadTail until caught up.
func collectReplay(t *testing.T, w *WAL, from uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	cur, err := w.CursorAt(from)
	if err != nil {
		t.Fatal(err)
	}
	for {
		recs, next, _, err := w.ReadTail(cur, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return got
		}
		for _, r := range recs {
			got[r.Seq] = string(r.Entry)
		}
		cur = next
	}
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	appendN(t, w, 25, "batch")
	if w.LastSeq() != 25 {
		t.Fatalf("lastSeq %d, want 25", w.LastSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, nil)
	defer w2.Close()
	if w2.LastSeq() != 25 {
		t.Fatalf("recovered lastSeq %d, want 25", w2.LastSeq())
	}
	if w2.WasEmpty() {
		t.Fatal("reopened WAL claims it was empty")
	}
	got := collectReplay(t, w2, 0)
	if len(got) != 25 {
		t.Fatalf("replayed %d records, want 25", len(got))
	}
	if got[7] != "batch-0006" {
		t.Fatalf("seq 7 = %q", got[7])
	}
	// Partial replay honors fromSeq.
	if tail := collectReplay(t, w2, 20); len(tail) != 5 {
		t.Fatalf("tail replay %d records, want 5", len(tail))
	}
	// Appends continue after recovery with contiguous sequences.
	res, err := w2.Append([]byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 26 {
		t.Fatalf("post-recovery seq %d, want 26", res.Seq)
	}
}

// TestWALRotationAndTruncation forces tiny segments, checks rotation
// produces a multi-segment log that recovers, and that checkpoint-
// coordinated truncation deletes only fully-covered segments.
func TestWALRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	appendN(t, w, 40, "rot")
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("only %d segments after 40 appends with 256-byte segments", st.Segments)
	}
	if err := w.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.Segments >= st.Segments {
		t.Fatalf("truncation removed nothing: %d → %d segments", st.Segments, after.Segments)
	}
	// Everything past the covered seq must still replay.
	got := collectReplay(t, w, 20)
	for seq := uint64(21); seq <= 40; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("seq %d lost by truncation", seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopened truncated log (first segment no longer starts at 1)
	// must pass the continuity scan.
	w2 := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	defer w2.Close()
	if w2.LastSeq() != 40 {
		t.Fatalf("reopened truncated log at seq %d, want 40", w2.LastSeq())
	}
}

// readCountingFS counts ReadFile calls on the way to the FS it wraps.
type readCountingFS struct {
	FS
	reads int
}

func (c *readCountingFS) ReadFile(name string) ([]byte, error) {
	c.reads++
	return c.FS.ReadFile(name)
}

// walDiskBytes sums the on-disk sizes of the segment files in dir.
func walDiskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := OSFS.ReadDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		if _, ok := parseWALSegmentName(n); !ok {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestWALBytesMatchDisk pins the size accounting behind WALStats.Bytes:
// it equals the segment files' summed size across rotations, truncation,
// a reopen over a torn tail, and further appends — and truncation learns
// the sizes it subtracts from its own bookkeeping, never by reading the
// segments it is about to delete.
func TestWALBytesMatchDisk(t *testing.T) {
	dir := t.TempDir()
	fs := &readCountingFS{FS: OSFS}
	cfg := func(c *WALConfig) { c.FS, c.SegmentBytes = fs, 256 }
	check := func(w *WAL, when string) {
		t.Helper()
		if got, want := w.Stats().Bytes, walDiskBytes(t, dir); got != want {
			t.Fatalf("%s: WALStats.Bytes %d, segment files hold %d", when, got, want)
		}
	}

	w := openTestWAL(t, dir, cfg)
	appendN(t, w, 40, "size")
	if w.Stats().Segments < 3 {
		t.Fatalf("only %d segments after 40 appends with 256-byte segments", w.Stats().Segments)
	}
	check(w, "after rotations")
	fs.reads = 0
	if err := w.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	if fs.reads != 0 {
		t.Fatalf("TruncateThrough read %d segment files", fs.reads)
	}
	check(w, "after truncation")
	appendN(t, w, 15, "more")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record so the reopen has a tail to repair.
	names, _ := OSFS.ReadDirNames(dir)
	path := filepath.Join(dir, names[len(names)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, cfg)
	defer w2.Close()
	check(w2, "after reopen")
	appendN(t, w2, 30, "reopened")
	check(w2, "after appends past the reopen")
	fs.reads = 0
	if err := w2.TruncateThrough(w2.LastSeq() - 5); err != nil {
		t.Fatal(err)
	}
	if fs.reads != 0 {
		t.Fatalf("TruncateThrough after reopen read %d segment files", fs.reads)
	}
	check(w2, "after truncation past the reopen")
}

// TestWALTornTailTruncated simulates a crash mid-append: bytes missing
// from the final record must be repaired by truncation, keeping every
// complete record and accepting new appends.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	appendN(t, w, 10, "torn")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := OSFS.ReadDirNames(dir)
	if len(names) != 1 {
		t.Fatalf("want 1 segment, got %v", names)
	}
	path := filepath.Join(dir, names[0])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	var logged bool
	w2 := openTestWAL(t, dir, func(c *WALConfig) {
		c.Logf = func(string, ...any) { logged = true }
	})
	defer w2.Close()
	if w2.LastSeq() != 9 {
		t.Fatalf("torn-tail recovery at seq %d, want 9", w2.LastSeq())
	}
	if !logged {
		t.Fatal("torn-tail repair was silent")
	}
	if got := collectReplay(t, w2, 0); len(got) != 9 {
		t.Fatalf("replayed %d records, want 9", len(got))
	}
	if res, err := w2.Append([]byte("after-repair")); err != nil || res.Seq != 10 {
		t.Fatalf("append after repair: seq %d err %v", res.Seq, err)
	}
}

// TestWALMidLogCorruptionRefused: damage that is not a torn tail — a
// flipped byte in an earlier segment — must refuse recovery with a typed
// WALCorruptError instead of quietly dropping records.
func TestWALMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	appendN(t, w, 40, "mid")
	if w.Stats().Segments < 2 {
		t.Fatal("need at least two segments")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := OSFS.ReadDirNames(dir)
	path := filepath.Join(dir, names[0]) // oldest (non-final) segment
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[walHeaderSize+walRecHdrSize+3] ^= 0xff // flip a payload byte
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenWAL(WALConfig{Dir: dir})
	var ce *WALCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want WALCorruptError, got %v", err)
	}
	if ce.Segment != names[0] {
		t.Fatalf("corruption attributed to %s, want %s", ce.Segment, names[0])
	}
}

// TestWALForwardTo: a fresh WAL attached to an existing checkpoint must
// continue the checkpoint's numbering, and the renumbered log must
// survive a reopen.
func TestWALForwardTo(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	if !w.WasEmpty() {
		t.Fatal("fresh WAL not reported empty")
	}
	w.ForwardTo(100)
	res, err := w.Append([]byte("first-after-forward"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 101 {
		t.Fatalf("seq %d after ForwardTo(100), want 101", res.Seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, nil)
	defer w2.Close()
	if w2.LastSeq() != 101 {
		t.Fatalf("reopened forwarded log at %d, want 101", w2.LastSeq())
	}
	if got := collectReplay(t, w2, 100); len(got) != 1 || got[101] != "first-after-forward" {
		t.Fatalf("forwarded replay: %v", got)
	}
}

// TestWALWriteFaults: injected ENOSPC, fsync failure, and short writes
// must surface typed WALWriteErrors and wedge the log — never ack-and-
// lose.
func TestWALWriteFaults(t *testing.T) {
	t.Run("enospc", func(t *testing.T) {
		ffs := &FaultFS{Inner: OSFS}
		w := openTestWAL(t, t.TempDir(), func(c *WALConfig) { c.FS = ffs })
		defer w.Close()
		appendN(t, w, 3, "pre")
		ffs.SetWriteBudget(10) // next record is torn mid-write
		_, err := w.Append([]byte("doomed-batch-payload-well-over-budget"))
		var we *WALWriteError
		if !errors.As(err, &we) || !errors.Is(err, ErrInjected) {
			t.Fatalf("want WALWriteError wrapping ErrInjected, got %v", err)
		}
		// Wedged: later appends fail fast even though space "returned".
		ffs.SetWriteBudget(-1)
		if _, err := w.Append([]byte("after")); !errors.As(err, &we) {
			t.Fatalf("wedged WAL accepted an append: %v", err)
		}
		if w.Stats().Err == "" {
			t.Fatal("stats hide the wedged state")
		}
	})
	t.Run("fsync-error", func(t *testing.T) {
		ffs := &FaultFS{Inner: OSFS}
		w := openTestWAL(t, t.TempDir(), func(c *WALConfig) { c.FS = ffs })
		defer w.Close()
		appendN(t, w, 2, "pre")
		ffs.FailSyncs(1)
		// Append is buffered-only; the failure must surface on the
		// durability wait, and wedge the WAL for everything after.
		res, err := w.Append([]byte("unsynced"))
		if err != nil {
			t.Fatalf("buffered append tripped on a sync fault: %v", err)
		}
		_, err = w.WaitDurable(res.Seq)
		var we *WALWriteError
		if !errors.As(err, &we) {
			t.Fatalf("fsync failure not surfaced: %v", err)
		}
		if _, err := w.Append([]byte("after")); err == nil {
			t.Fatal("WAL kept acking after a failed fsync")
		}
		if _, err := w.WaitDurable(res.Seq); err == nil {
			t.Fatal("wedged WAL satisfied a durability wait")
		}
	})
	t.Run("short-write", func(t *testing.T) {
		ffs := &FaultFS{Inner: OSFS}
		w := openTestWAL(t, t.TempDir(), func(c *WALConfig) { c.FS = ffs })
		defer w.Close()
		appendN(t, w, 2, "pre")
		ffs.TearNextWrite()
		_, err := w.Append([]byte("torn-entry"))
		var we *WALWriteError
		if !errors.As(err, &we) {
			t.Fatalf("short write not surfaced: %v", err)
		}
	})
}

// TestWALTruncateReopenResumesHorizon is the checkpoint-coordination
// regression: after TruncateThrough removes the covered head, a reopened
// log must resume at EXACTLY the durable horizon — same lastSeq, next
// append numbered lastSeq+1, and the uncovered tail fully replayable —
// across a second reopen too.
func TestWALTruncateReopenResumesHorizon(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	appendN(t, w, 30, "hz")
	if err := w.TruncateThrough(25); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	if w2.LastSeq() != 30 {
		t.Fatalf("reopened at seq %d, want 30", w2.LastSeq())
	}
	if res, err := w2.Append([]byte("hz-next")); err != nil || res.Seq != 31 {
		t.Fatalf("append after truncated reopen: seq %d err %v", res.Seq, err)
	}
	got := collectReplay(t, w2, 25)
	for seq := uint64(26); seq <= 31; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("seq %d missing from the uncovered tail", seq)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3 := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	defer w3.Close()
	if w3.LastSeq() != 31 {
		t.Fatalf("second reopen at seq %d, want 31", w3.LastSeq())
	}
}

// One checkpoint state encodes to one byte string: the producer horizon is
// written in ascending order, not in Go's per-run map order, and decodes
// back to the same map.
func TestWALCkptMetaDeterministic(t *testing.T) {
	producers := map[string]uint64{"p-a": 3, "p-b": 17, "router/c": 1, "d": 1 << 40, "e-longer-id": 9}
	want := encodeWALCkptMeta(42, producers)
	for i := 0; i < 50; i++ {
		if got := encodeWALCkptMeta(42, producers); string(got) != string(want) {
			t.Fatalf("encode %d differs from the first encode", i)
		}
	}
	m, err := decodeWALCkptMeta(want)
	if err != nil {
		t.Fatal(err)
	}
	if m.coveredSeq != 42 || len(m.producers) != len(producers) {
		t.Fatalf("decoded %+v", m)
	}
	for p, q := range producers {
		if m.producers[p] != q {
			t.Fatalf("producer %q: decoded seq %d, want %d", p, m.producers[p], q)
		}
	}
}
