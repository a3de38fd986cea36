package server

import (
	"fmt"
	"path/filepath"
)

// WAL tail reads: the replication half of the log. A follower replica
// consumes records through a TailCursor without ever touching the write
// path — reads snapshot (lastSeq, segment list) under the lock, then
// parse segment files with the lock RELEASED, so a tailing follower can
// never block an append or a group-commit fsync.
//
// Concurrent-append safety: a record's bytes are fully written before
// lastSeq advances under w.mu, so any record with seq <= the snapshot's
// lastSeq is complete in a file read taken after the snapshot. Bytes past
// the snapshot horizon may be a half-written append; the walk stops at
// the horizon and never looks at them. Below the horizon a record that
// fails to parse or breaks continuity is damage, never a place to stop.

// TailTruncatedError reports a tail read that asked for records the log
// no longer holds: a checkpoint-coordinated truncation deleted them. The
// reader must re-bootstrap from a checkpoint snapshot covering at least
// OldestSeq-1 instead of resuming record-by-record.
type TailTruncatedError struct {
	FromSeq   uint64 // reader wanted records after this sequence
	OldestSeq uint64 // oldest record the log still holds
}

func (e *TailTruncatedError) Error() string {
	return fmt.Sprintf("wal: records after seq %d requested but the log now starts at seq %d (truncated)", e.FromSeq, e.OldestSeq)
}

// TailCursor is a reader's resume position. The zero value is invalid;
// obtain one from CursorAt and thread it through ReadTail calls.
// SegFirst/Offset are a seek hint — ReadTail re-derives them from NextSeq
// when the hinted segment rotated or was truncated away.
type TailCursor struct {
	NextSeq  uint64 // next sequence the reader wants
	SegFirst uint64 // firstSeq of the segment the hint points into
	Offset   int64  // byte offset of the next record within that segment
}

// TailRecord is one replicated record: its sequence, the entry bytes
// exactly as Append stored them, and the whole framed record (len | crc |
// seq | entry), which GET /wal ships verbatim. Entry and Raw alias a
// buffer owned by the ReadTail call; they are valid only until the next
// ReadTail on the cursor.
type TailRecord struct {
	Seq   uint64
	Entry []byte
	Raw   []byte
}

// oldestAvailableLocked returns the oldest record sequence the log still
// holds (lastSeq+1 when the log holds none — empty or fully forwarded).
func (w *WAL) oldestAvailableLocked() uint64 {
	for _, seg := range w.segments {
		if seg.lastSeq >= seg.firstSeq {
			return seg.firstSeq
		}
	}
	return w.lastSeq + 1
}

// CursorAt positions a tail cursor after fromSeq, so the first record a
// subsequent ReadTail returns is fromSeq+1. Returns *TailTruncatedError
// when fromSeq+1 was truncated away (the reader needs a snapshot).
func (w *WAL) CursorAt(fromSeq uint64) (TailCursor, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if next := fromSeq + 1; next <= w.lastSeq {
		if oldest := w.oldestAvailableLocked(); next < oldest {
			return TailCursor{}, &TailTruncatedError{FromSeq: fromSeq, OldestSeq: oldest}
		}
	}
	return TailCursor{NextSeq: fromSeq + 1}, nil
}

// ReadTail returns records starting at cur.NextSeq, up to roughly
// maxBytes of entry payload (always at least one record when any is
// available), plus the advanced cursor and the log's lastSeq at the time
// of the read. An empty result with err == nil means the cursor is caught
// up to lastSeq. Returns *TailTruncatedError when the cursor's records
// were truncated away since the last call, and *WALCorruptError when a
// record at or below the horizon fails to parse or breaks sequence
// continuity — then no record is returned.
func (w *WAL) ReadTail(cur TailCursor, maxBytes int) ([]TailRecord, TailCursor, uint64, error) {
	return w.readTail(cur, maxBytes, false)
}

// readTail is ReadTail, optionally stopping at the end of the first
// segment it reads: replay passes oneSegment with no byte budget, so it
// reads each segment file once and holds at most two at a time.
func (w *WAL) readTail(cur TailCursor, maxBytes int, oneSegment bool) ([]TailRecord, TailCursor, uint64, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	w.mu.Lock()
	lastSeq := w.lastSeq
	segs := append([]walSegment(nil), w.segments...)
	oldest := w.oldestAvailableLocked()
	w.mu.Unlock()

	if cur.NextSeq == 0 {
		cur.NextSeq = 1
	}
	if cur.NextSeq > lastSeq {
		return nil, cur, lastSeq, nil // caught up
	}
	if cur.NextSeq < oldest {
		return nil, cur, lastSeq, &TailTruncatedError{FromSeq: cur.NextSeq - 1, OldestSeq: oldest}
	}

	var out []TailRecord
	budget := maxBytes
	for _, seg := range segs {
		if budget <= 0 || cur.NextSeq > lastSeq || (oneSegment && out != nil) {
			break
		}
		if seg.lastSeq < seg.firstSeq || seg.lastSeq < cur.NextSeq {
			continue // empty or fully-consumed segment
		}
		blob, err := w.cfg.FS.ReadFile(filepath.Join(w.cfg.Dir, seg.name))
		if err != nil {
			return nil, cur, lastSeq, &WALWriteError{Op: "tail read " + seg.name, Err: err}
		}
		off, prev := int64(walHeaderSize), seg.firstSeq-1
		if cur.SegFirst == seg.firstSeq && cur.Offset >= off && cur.Offset <= int64(len(blob)) {
			off, prev = cur.Offset, cur.NextSeq-1 // resume where the last call stopped
		}
		// Records past seg.lastSeq (<= the snapshot horizon) may be a
		// half-written append; the walk stops before them.
		end, last, reason, _ := walkSegment(blob, off, prev, seg.lastSeq, func(r TailRecord, end int64) bool {
			if r.Seq >= cur.NextSeq {
				out = append(out, r)
				budget -= 8 + len(r.Entry)
				cur = TailCursor{NextSeq: r.Seq + 1, SegFirst: seg.firstSeq, Offset: end}
			}
			return budget > 0
		})
		if reason == "" && budget > 0 && last < seg.lastSeq {
			reason = fmt.Sprintf("segment ends at seq %d, log holds through %d", last, seg.lastSeq)
		}
		if reason != "" {
			return nil, cur, lastSeq, &WALCorruptError{Segment: seg.name, Offset: end, Reason: reason}
		}
	}
	return out, cur, lastSeq, nil
}
