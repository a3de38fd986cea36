package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"keybin2/internal/wire"
)

// Write-ahead log: the durability half of keybin2d's ack contract. Every
// accepted ingest batch is framed, checksummed, and appended to a segment
// file *before* the 2xx acknowledgment leaves the server; on restart the
// daemon restores the newest checkpoint and replays the WAL tail past the
// checkpoint's covered sequence, so a kill -9 loses nothing that was
// acknowledged (under fsync=always; see the policy matrix in DESIGN.md).
//
// On-disk layout: a directory of segments named wal-<firstseq-hex>.seg.
//
//	segment: magic "KB2W" | version u32 | firstSeq u64
//	record:  len u32 | crc32c u32 | payload(len)
//	payload: seq u64 | entry bytes (opaque to the WAL)
//
// CRC32C (Castagnoli) covers the payload. Sequence numbers are assigned
// by Append, start at 1, and are contiguous across segments — recovery
// verifies continuity, so a missing or reordered segment is detected as
// corruption rather than silently skipped.
//
// Torn-write semantics: a decode failure at the *tail of the last
// segment* is the expected signature of a crash mid-append — the file is
// truncated back to the last clean record and appends continue there. A
// decode failure anywhere else (an earlier segment, or a non-final
// record) means the log was damaged at rest; recovery refuses with a
// typed *WALCorruptError* instead of guessing which records to keep.
// Every reader parses through parseWALRecord and walkSegment
// (wal_open.go), so the open scan, replay and GET /wal share one rule.
//
// Checkpoint-coordinated truncation: a successful checkpoint records the
// WAL sequence it covers; TruncateThrough then deletes every segment
// whose records are all covered, bounding the log to roughly one
// checkpoint interval of traffic.

const (
	walMagic      = "KB2W"
	walVersion    = 1
	walHeaderSize = 4 + 4 + 8 // magic | version | firstSeq
	walRecHdrSize = 4 + 4     // len | crc32c
	// walMaxRecord bounds a single record; a length prefix beyond it is
	// treated as corruption, not an allocation request.
	walMaxRecord = 64 << 20
)

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// WALCorruptError reports damage in the log body that recovery must not
// repair by guessing: a bad checksum, broken sequence continuity, or a
// torn record that is not the final one.
type WALCorruptError struct {
	Segment string // file name
	Offset  int64
	Reason  string
}

func (e *WALCorruptError) Error() string {
	return fmt.Sprintf("wal: %s corrupt at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// WALWriteError reports a failed append, sync, or rotation. Once one
// occurs the WAL is wedged: every later Append fails fast with the same
// error, because the tail of the log can no longer be trusted and acking
// writes against it would be silent data loss.
type WALWriteError struct {
	Op  string
	Err error
}

func (e *WALWriteError) Error() string { return fmt.Sprintf("wal: %s: %v", e.Op, e.Err) }
func (e *WALWriteError) Unwrap() error { return e.Err }

// WALStaleError reports a WAL that ends before the checkpoint's covered
// sequence even though it is not empty: the log lost acknowledged
// history (replaced, rolled back, or partially deleted). Starting anyway
// would silently drop whatever the missing tail held, so the operator
// must decide (usually: delete the stale WAL directory).
type WALStaleError struct {
	LastSeq    uint64 // newest sequence the WAL holds
	CoveredSeq uint64 // sequence the checkpoint claims to cover
}

func (e *WALStaleError) Error() string {
	return fmt.Sprintf("wal: log ends at seq %d but checkpoint covers seq %d: WAL lost acknowledged history", e.LastSeq, e.CoveredSeq)
}

// FsyncPolicy selects when appended records are flushed to stable
// storage — the durability/throughput dial.
type FsyncPolicy string

const (
	// FsyncAlways syncs before every acknowledgment: an acked batch
	// survives kill -9 and power loss.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer: acked batches survive kill -9
	// (the OS has the data) but up to one interval is exposed to power
	// loss / kernel crash.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS entirely.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates an operator-supplied policy string.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// WALConfig tunes a write-ahead log.
type WALConfig struct {
	Dir string
	// FS is the filesystem the log writes through (default OSFS).
	FS FS
	// Fsync is the flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the flush cadence under FsyncInterval (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes triggers rotation once the active segment exceeds it
	// (default 4 MiB).
	SegmentBytes int64
	Logf         func(format string, args ...any)
	// OnFsync, when set, observes the wall-clock duration of every file
	// data sync the log performs: per-append syncs under FsyncAlways,
	// interval flushes, and rotation/close syncs. Called with the log's
	// lock held — keep it cheap (a histogram observe, not I/O).
	OnFsync func(d time.Duration)
	// OnRotate, when set, is called after each successful segment
	// rotation, with the log's lock held.
	OnRotate func()
}

func (c WALConfig) withDefaults() WALConfig {
	if c.FS == nil {
		c.FS = OSFS
	}
	if c.Fsync == "" {
		c.Fsync = FsyncAlways
	}
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	return c
}

// walSegment is one on-disk segment: its file name, the sequence range it
// holds, and its byte size. lastSeq is firstSeq-1 for a segment with no
// records yet. size is exact for closed segments (set by the open scan or
// at rotation); the active segment's live size is WAL.curSize.
type walSegment struct {
	name     string
	firstSeq uint64
	lastSeq  uint64
	size     int64
}

// WALStats is the log's health snapshot, served under /stats.
type WALStats struct {
	LastSeq  uint64 `json:"last_seq"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	// Err is the sticky write-path error ("" = healthy). A wedged WAL
	// fails every ingest until the operator intervenes.
	Err string `json:"err,omitempty"`
}

// WAL is a segmented, checksummed write-ahead log. Append/Sync/Close are
// safe for one caller at a time per method but the WAL serializes
// internally, so concurrent HTTP handlers may Append directly.
type WAL struct {
	cfg WALConfig

	mu        sync.Mutex
	syncCond  *sync.Cond   // broadcast when an in-flight fsync finishes
	segments  []walSegment // oldest..newest; the last one is active
	cur       File         // active segment, open for append
	curSize   int64
	totalSize int64 // closed segments + active
	lastSeq   uint64
	synced    uint64 // newest sequence known to be on stable storage
	syncing   bool   // a leader's fsync is in flight, outside the lock
	dirty     bool   // unsynced appends
	wedged    error  // sticky write-path failure
	wasEmpty  bool   // no segments existed at Open
	recBuf    []byte // reusable record framing buffer (guarded by mu)

	// appendC, when armed by AppendNotify, is closed on the next
	// successful append so tail readers can long-poll for new records.
	// Arm-on-demand keeps the append hot path allocation-free when no
	// reader is waiting: the channel is (re)allocated by the poller, and
	// Append only ever closes it.
	appendC     chan struct{}
	appendArmed bool

	flushStop chan struct{}
	flushDone chan struct{}
}

func (w *WAL) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// WasEmpty reports whether the directory held no segments at Open — a
// fresh log, as opposed to one that has lost history (see WALStaleError).
func (w *WAL) WasEmpty() bool { return w.wasEmpty }

// LastSeq returns the newest appended (or recovered) sequence.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// ForwardTo advances the sequence counter without writing a record, so a
// log attached to a checkpoint or a replicated horizon continues that
// numbering instead of reissuing covered sequences. It starts a fresh
// segment named for seq+1: record seq+1 must never land behind older
// records in one file, where the open scan would see a sequence break.
// The checkpoint covering seq truncates the segments left behind.
func (w *WAL) ForwardTo(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq <= w.lastSeq {
		return nil
	}
	for w.syncing {
		w.syncCond.Wait()
	}
	w.lastSeq = seq // the rotation marks it synced: nothing was written
	if err := w.rotateLocked(seq + 1); err != nil {
		w.wedged = err
		return err
	}
	return nil
}

// AppendResult reports one completed append: the assigned sequence (what
// a checkpoint later covers) and the framed bytes written to the segment.
// Append never syncs; durability is WaitDurable's job.
type AppendResult struct {
	Seq   uint64
	Bytes int
}

// Append frames the concatenation of the entry parts, assigns it the next
// sequence, and writes it to the active segment — buffered only, never
// synced, whatever the policy. Callers whose ack implies stable storage
// (FsyncAlways) follow up with WaitDurable, which batches concurrent
// appends into one group-commit fsync. The multi-part form lets callers
// frame a header and a payload without concatenating them first; ReadTail
// hands back the joined bytes. After any write failure the WAL wedges:
// the caller must stop acking.
func (w *WAL) Append(entry ...[]byte) (AppendResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var seq uint64
	var act *walSegment
	for {
		if w.wedged != nil {
			return AppendResult{}, &WALWriteError{Op: "append (wedged)", Err: w.wedged}
		}
		seq = w.lastSeq + 1

		// Rotate when the active segment is over budget, or when ForwardTo
		// skipped it past the active segment's declared firstSeq range.
		// Rotation closes the active file, so it must wait out any fsync a
		// durability leader is running against it outside the lock — and
		// re-evaluate afterwards, since other appends ran while we waited.
		act = &w.segments[len(w.segments)-1]
		if w.curSize >= w.cfg.SegmentBytes || (act.lastSeq+1 != seq && act.firstSeq != seq && w.curSize == int64(walHeaderSize)) {
			if w.syncing {
				w.syncCond.Wait()
				continue
			}
			if err := w.rotateLocked(seq); err != nil {
				w.wedged = err
				return AppendResult{}, err
			}
			continue
		}
		break
	}

	entryLen := 0
	for _, part := range entry {
		entryLen += len(part)
	}
	rw := wire.Writer{Buf: w.recBuf[:0]}
	rw.U32(uint32(8 + entryLen))
	rw.U32(0) // crc32c(seq‖entry), filled in once the payload is in place
	rw.U64(seq)
	for _, part := range entry {
		rw.Raw(part)
	}
	rec := rw.Buf
	w.recBuf = rec
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[walRecHdrSize:], walCRCTable))

	n, err := w.cur.Write(rec)
	w.curSize += int64(n)
	w.totalSize += int64(n)
	if err == nil && n != len(rec) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(rec))
	}
	if err != nil {
		werr := &WALWriteError{Op: "append seq " + strconv.FormatUint(seq, 10), Err: err}
		w.wedged = werr
		return AppendResult{}, werr
	}
	w.dirty = true
	w.lastSeq = seq
	act.lastSeq = seq
	if w.appendArmed {
		close(w.appendC)
		w.appendC = nil
		w.appendArmed = false
	}
	return AppendResult{Seq: seq, Bytes: n}, nil
}

// AppendNotify returns a channel that is closed when the next record is
// appended. Grab the channel BEFORE checking for new records: an append
// that lands in between is then observed either by the check or by the
// already-obtained channel, never missed.
func (w *WAL) AppendNotify() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.appendC == nil {
		w.appendC = make(chan struct{})
	}
	w.appendArmed = true
	return w.appendC
}

// SyncWait reports how a durability wait was satisfied.
type SyncWait struct {
	// Fsync is the time spent in the fsync this waiter led (zero when
	// the wait coalesced onto a sync another waiter already performed).
	Fsync time.Duration
	// Group is the number of appended records the led fsync made durable
	// in one call — the group-commit batch size.
	Group int
	// Coalesced reports that seq was already durable on arrival: this
	// ack rode a sync some other waiter led.
	Coalesced bool
}

// WaitDurable blocks until every record through seq is on stable
// storage — the group-commit half of the Append/WaitDurable pair. The
// first waiter becomes the leader: it snapshots the appended tail and
// fsyncs it in one call with the lock RELEASED, so concurrent appends
// (and the next group's records) keep flowing while the disk flushes.
// Waiters that arrive during the flush block on the lock or the sync
// condition; when the leader finishes they find their sequence covered
// and return without touching the disk — or lead the next group.
// Under FsyncInterval/FsyncNever it returns immediately: those policies'
// acks do not wait on the disk. A failed sync wedges the WAL, and a
// wedged WAL fails every waiter — no ack can ride a sync that did not
// happen.
func (w *WAL) WaitDurable(seq uint64) (SyncWait, error) {
	if w.cfg.Fsync != FsyncAlways {
		return SyncWait{}, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.wedged != nil {
			return SyncWait{}, &WALWriteError{Op: "wait durable (wedged)", Err: w.wedged}
		}
		if w.synced >= seq {
			return SyncWait{Coalesced: true}, nil
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		d, group, err := w.leadSyncLocked()
		if err != nil {
			return SyncWait{}, err
		}
		// The leader's snapshot included w.lastSeq >= seq (our record was
		// appended before we waited), so one led sync always suffices.
		return SyncWait{Fsync: d, Group: group}, nil
	}
}

// leadSyncLocked performs one leader fsync: it snapshots the tail under
// the lock, releases the lock for the flush itself, and reacquires it to
// publish the result. Records appended during the flush stay dirty for
// the next leader. Callers hold w.mu with w.syncing false; on return
// w.mu is held again and every cond waiter has been woken. Returns the
// flush duration and the number of records the sync newly made durable.
func (w *WAL) leadSyncLocked() (time.Duration, int, error) {
	w.syncing = true
	f := w.cur
	target := w.lastSeq
	before := w.synced
	w.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	d := time.Since(start)
	w.mu.Lock()
	w.syncing = false
	defer w.syncCond.Broadcast()
	if err != nil {
		werr := &WALWriteError{Op: "fsync", Err: err}
		w.wedged = werr
		return 0, 0, werr
	}
	if w.cfg.OnFsync != nil {
		w.cfg.OnFsync(d)
	}
	if target > w.synced {
		w.synced = target
	}
	w.dirty = w.lastSeq > w.synced
	return d, int(target - before), nil
}

// Wedged returns the sticky write-path error, or nil while healthy.
func (w *WAL) Wedged() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wedged
}

// syncFileLocked syncs f, timing the call and feeding the OnFsync hook on
// success. Callers hold w.mu.
func (w *WAL) syncFileLocked(f File) (time.Duration, error) {
	start := time.Now()
	if err := f.Sync(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if w.cfg.OnFsync != nil {
		w.cfg.OnFsync(d)
	}
	return d, nil
}

// rotateLocked finalizes the active segment (sync + close) and starts a
// new one whose first record will be firstSeq, fsyncing the directory so
// the new file survives power loss. Callers hold w.mu.
func (w *WAL) rotateLocked(firstSeq uint64) error {
	if w.cur != nil {
		if _, err := w.syncFileLocked(w.cur); err != nil {
			return &WALWriteError{Op: "fsync on rotation", Err: err}
		}
		if err := w.cur.Close(); err != nil {
			return &WALWriteError{Op: "close on rotation", Err: err}
		}
		// Every record so far lives in the segment just synced (or in an
		// older one synced at its own rotation), so the whole log is now
		// on stable storage.
		w.synced = w.lastSeq
		w.dirty = false
		w.cur = nil
		act := &w.segments[len(w.segments)-1]
		act.size = w.curSize
		// An empty active segment (rotation crash leftover / ForwardTo
		// skip) would break the continuity scan; drop it.
		if act.lastSeq < act.firstSeq {
			w.cfg.FS.Remove(filepath.Join(w.cfg.Dir, act.name))
			w.totalSize -= act.size
			w.segments = w.segments[:len(w.segments)-1]
		}
	}
	name := walSegmentName(firstSeq)
	path := filepath.Join(w.cfg.Dir, name)
	f, err := w.cfg.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return &WALWriteError{Op: "create " + name, Err: err}
	}
	hw := wire.Writer{Buf: make([]byte, 0, walHeaderSize)}
	hw.Str(walMagic)
	hw.U32(walVersion)
	hw.U64(firstSeq)
	hdr := hw.Buf
	if n, err := f.Write(hdr); err != nil || n != len(hdr) {
		f.Close()
		if err == nil {
			err = fmt.Errorf("short header write: %d of %d bytes", n, len(hdr))
		}
		return &WALWriteError{Op: "write header " + name, Err: err}
	}
	if w.cfg.Fsync == FsyncAlways {
		if _, err := w.syncFileLocked(f); err != nil {
			f.Close()
			return &WALWriteError{Op: "fsync header " + name, Err: err}
		}
	}
	// The directory entry for the new segment must be durable before any
	// record inside it is trusted.
	if err := w.cfg.FS.SyncDir(w.cfg.Dir); err != nil {
		f.Close()
		return &WALWriteError{Op: "fsync dir", Err: err}
	}
	w.cur = f
	w.curSize = int64(walHeaderSize)
	w.totalSize += int64(walHeaderSize)
	w.segments = append(w.segments, walSegment{name: name, firstSeq: firstSeq, lastSeq: firstSeq - 1})
	if w.cfg.OnRotate != nil {
		w.cfg.OnRotate()
	}
	return nil
}

// Sync flushes unsynced appends to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// syncLocked flushes until no unsynced appends remain, releasing the
// lock for each flush (via leadSyncLocked) so appends are never blocked
// behind the disk. Records appended during a flush are caught by the
// next loop iteration. Callers hold w.mu.
func (w *WAL) syncLocked() error {
	for {
		if w.wedged != nil {
			return w.wedged
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		if !w.dirty || w.cur == nil {
			return nil
		}
		if _, _, err := w.leadSyncLocked(); err != nil {
			return err
		}
	}
}

func (w *WAL) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(w.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := w.Sync(); err != nil {
				w.logf("wal: interval fsync: %v", err)
				return // wedged; appends now fail fast
			}
		case <-w.flushStop:
			return
		}
	}
}

// TruncateThrough deletes every segment whose records are all covered by
// a durable checkpoint at throughSeq. The active segment survives even
// when fully covered — appends continue into it. The directory is
// fsynced after removals so a crash cannot resurrect a deleted segment
// and present recovery with a log longer than the checkpoint believes.
func (w *WAL) TruncateThrough(throughSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segments) > 1 && w.segments[0].lastSeq <= throughSeq {
		seg := w.segments[0]
		if err := w.cfg.FS.Remove(filepath.Join(w.cfg.Dir, seg.name)); err != nil {
			return &WALWriteError{Op: "remove " + seg.name, Err: err}
		}
		w.totalSize -= seg.size
		w.segments = w.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := w.cfg.FS.SyncDir(w.cfg.Dir); err != nil {
			return &WALWriteError{Op: "fsync dir after truncation", Err: err}
		}
		w.logf("wal: truncated %d segment(s) through seq %d", removed, throughSeq)
	}
	return nil
}

// Stats returns the log's health snapshot. Safe from any goroutine.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WALStats{LastSeq: w.lastSeq, Segments: len(w.segments), Bytes: w.totalSize}
	if w.wedged != nil {
		st.Err = w.wedged.Error()
	}
	return st
}

// Close stops the flusher, syncs outstanding appends, and closes the
// active segment. The WAL must not be used afterwards.
func (w *WAL) Close() error {
	if w.flushStop != nil {
		close(w.flushStop)
		<-w.flushDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.syncCond.Wait()
	}
	var err error
	if w.wedged == nil && w.dirty && w.cur != nil {
		if _, serr := w.syncFileLocked(w.cur); serr != nil {
			err = &WALWriteError{Op: "fsync on close", Err: serr}
		}
	}
	if w.cur != nil {
		if cerr := w.cur.Close(); cerr != nil && err == nil {
			err = &WALWriteError{Op: "close", Err: cerr}
		}
		w.cur = nil
	}
	return err
}
