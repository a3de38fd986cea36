package server

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"keybin2/internal/wire"
)

// Recovery: opening a log directory, validating and repairing what a
// previous incarnation left in it, and replaying it. The format and the
// torn-write rules are described at the top of wal.go.

func walSegmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstSeq)
}

func parseWALSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	return seq, err == nil
}

// OpenWAL opens (or creates) the log in cfg.Dir, scans and validates
// every existing segment, repairs a torn final record, and leaves the
// log ready to append after the newest valid sequence. Mid-log damage
// returns *WALCorruptError.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: Dir is required")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, &WALWriteError{Op: "mkdir " + cfg.Dir, Err: err}
	}
	w := &WAL{cfg: cfg}
	w.syncCond = sync.NewCond(&w.mu)

	names, err := cfg.FS.ReadDirNames(cfg.Dir)
	if err != nil {
		return nil, &WALWriteError{Op: "scan " + cfg.Dir, Err: err}
	}
	var firsts []uint64
	for _, n := range names {
		if seq, ok := parseWALSegmentName(n); ok {
			firsts = append(firsts, seq)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	w.wasEmpty = len(firsts) == 0

	expect := uint64(0) // last validated seq so far
	for i, first := range firsts {
		if i == 0 {
			// Truncation deletes covered prefixes, so the oldest
			// surviving segment may start anywhere; continuity is only
			// enforced between consecutive segments.
			expect = first - 1
		}
		last := i == len(firsts)-1
		seg := walSegment{name: walSegmentName(first), firstSeq: first}
		size, lastSeq, err := w.scanSegment(seg, expect, last)
		if err != nil {
			return nil, err
		}
		if size < 0 {
			// Unsalvageable final segment (torn header): drop it; its
			// first record never completed, so nothing acked is inside.
			w.cfg.FS.Remove(filepath.Join(cfg.Dir, seg.name))
			w.cfg.FS.SyncDir(cfg.Dir)
			continue
		}
		seg.lastSeq, seg.size = lastSeq, size
		w.segments = append(w.segments, seg)
		w.totalSize += size
		if lastSeq > expect {
			expect = lastSeq
		}
	}
	w.lastSeq = expect
	w.synced = expect // recovered records were read back from disk

	// Open (or create) the active segment for appends.
	if len(w.segments) > 0 {
		act := w.segments[len(w.segments)-1]
		f, err := cfg.FS.OpenFile(filepath.Join(cfg.Dir, act.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, &WALWriteError{Op: "open " + act.name, Err: err}
		}
		w.cur = f
		// scanSegment sized the active segment (after any torn-tail
		// repair); appends grow it from there.
		w.curSize = act.size
	} else {
		if err := w.rotateLocked(w.lastSeq + 1); err != nil {
			return nil, err
		}
	}

	if cfg.Fsync == FsyncInterval {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// scanSegment validates one segment, repairing a torn tail when last is
// true. Returns the post-repair byte size and the segment's last seq, or
// size -1 when the final segment should be discarded entirely.
func (w *WAL) scanSegment(seg walSegment, prevSeq uint64, last bool) (int64, uint64, error) {
	path := filepath.Join(w.cfg.Dir, seg.name)
	blob, err := w.cfg.FS.ReadFile(path)
	if err != nil {
		return 0, 0, &WALWriteError{Op: "read " + seg.name, Err: err}
	}
	corrupt := func(off int64, reason string) error {
		return &WALCorruptError{Segment: seg.name, Offset: off, Reason: reason}
	}
	hdr := wire.NewReader(seg.name, blob)
	magic, v, hdrFirst := hdr.Bytes(4), hdr.U32(), hdr.U64()
	switch {
	case hdr.Err() != nil && last:
		return -1, 0, nil // crash during rotation: header never landed
	case hdr.Err() != nil:
		return 0, 0, corrupt(0, "truncated header in non-final segment")
	case string(magic) != walMagic:
		return 0, 0, corrupt(0, "bad magic")
	case v != walVersion:
		return 0, 0, corrupt(4, fmt.Sprintf("unsupported version %d", v))
	case hdrFirst != seg.firstSeq:
		return 0, 0, corrupt(8, fmt.Sprintf("header firstSeq %d != name %d", hdrFirst, seg.firstSeq))
	}
	if seg.firstSeq != prevSeq+1 {
		return 0, 0, corrupt(0, fmt.Sprintf("segment starts at seq %d, previous ended at %d", seg.firstSeq, prevSeq))
	}

	off, seq, reason, torn := walkSegment(blob, walHeaderSize, prevSeq, math.MaxUint64, nil)
	switch {
	case reason == "":
		return off, seq, nil
	case !torn:
		return 0, 0, corrupt(off, reason)
	case !last:
		return 0, 0, corrupt(off, reason+" in non-final segment")
	}
	// Expected crash signature: truncate back to the clean prefix.
	if err := w.cfg.FS.Truncate(path, off); err != nil {
		return 0, 0, &WALWriteError{Op: "truncate " + seg.name, Err: err}
	}
	w.logf("wal: %s: %s at offset %d, truncated torn tail (%d bytes dropped)",
		seg.name, reason, off, int64(len(blob))-off)
	return off, seq, nil
}

// parseWALRecord is the one decoder of a stored record, on disk or off
// the wire of GET /wal: it parses the record at the head of b and returns
// it (Entry and Raw aliasing b) with its framed size. A non-empty reason
// means b does not start with a whole, checksummed record.
func parseWALRecord(b []byte) (TailRecord, int64, string) {
	r := wire.NewReader("wal record", b)
	n, crc := r.U32(), r.U32()
	if r.Err() != nil {
		return TailRecord{}, 0, "partial record header"
	}
	if n < 8 || n > walMaxRecord {
		return TailRecord{}, 0, fmt.Sprintf("implausible record length %d", n)
	}
	payload := r.Bytes(int(n))
	if r.Err() != nil {
		return TailRecord{}, 0, "record extends past end of file"
	}
	if crc != crc32.Checksum(payload, walCRCTable) {
		return TailRecord{}, 0, "checksum mismatch"
	}
	p := wire.NewReader("wal record", payload)
	seq := p.U64()
	return TailRecord{Seq: seq, Entry: p.Bytes(p.Left()), Raw: b[:r.Off()]}, int64(r.Off()), ""
}

// walkSegment is the one loop over a segment image's records, shared by
// the open scan and every read (startup and promotion replay, GET /wal).
// From byte off, each record must parse and carry the sequence after
// prev; visit (when set) sees each one with the offset just past it. The
// walk ends at the end of blob, once prev reaches through, or when visit
// returns false. It returns where it stopped (offset, last sequence) and,
// when a record broke it, why; torn reports that the bytes at the offset
// are not a whole record, as opposed to a whole record out of sequence.
func walkSegment(blob []byte, off int64, prev, through uint64, visit func(TailRecord, int64) bool) (int64, uint64, string, bool) {
	for off < int64(len(blob)) && prev < through {
		rec, n, reason := parseWALRecord(blob[off:])
		if reason != "" {
			return off, prev, reason, true
		}
		if rec.Seq != prev+1 {
			return off, prev, fmt.Sprintf("sequence %d after %d", rec.Seq, prev), false
		}
		off, prev = off+n, rec.Seq
		if visit != nil && !visit(rec, off) {
			break
		}
	}
	return off, prev, "", false
}
