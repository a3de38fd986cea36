package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"keybin2/internal/daemon"
	"keybin2/internal/wire"
)

// The replication wire protocol (GET /wal?from=<seq>): the body is the
// log's stored records after from, back to back and byte for byte as they
// sit in the segment files (len | crc32c(seq‖entry) | seq | entry, see
// wal.go), typed application/x-kb2-wal. X-KB2-WAL-Last-Seq carries the
// primary's newest sequence at read time, and Content-Length bounds the
// body, so a response cut mid-stream surfaces as an unexpected EOF.
//
// Each response is one bounded tail round: the follower applies the
// records, remembers the horizon, and issues the next request from its
// new applied sequence. `wait` turns a caught-up request into a long poll
// (the handler parks on the WAL's append notification), so a current
// follower replicates with one in-flight request and no busy polling.
//
// Query parameters: from (required resume point: last applied sequence),
// wait (Go duration; long-poll when caught up), max_bytes (payload budget
// per response, default 1 MiB). A `from` below the log's oldest record
// answers 410 Gone with {"oldest_seq": n} — the follower must re-bootstrap
// from GET /snapshot.

// walTailType is the content type of a GET /wal body.
const walTailType = "application/x-kb2-wal"

func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	wal := s.wal.Load()
	if wal == nil {
		http.Error(w, "wal disabled: this node has no replication log", http.StatusNotImplemented)
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil && q.Get("from") != "" {
		http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
		return
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		wait, err = time.ParseDuration(v)
		if err != nil {
			http.Error(w, "bad wait: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	maxBytes := 1 << 20
	if v := q.Get("max_bytes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad max_bytes", http.StatusBadRequest)
			return
		}
		maxBytes = n
	}
	if v := q.Get("epoch"); v != "" {
		// The follower's fencing epoch rides along: a follower that has
		// seen a newer epoch than this node must not be fed from this log
		// — this node is the stale party (a fenced-off zombie).
		reqEpoch, err := strconv.ParseInt(v, 10, 64)
		if err != nil || reqEpoch < 0 {
			http.Error(w, "bad epoch", http.StatusBadRequest)
			return
		}
		if reqEpoch > s.role.Load().epoch {
			s.writeStaleEpoch(w, reqEpoch)
			return
		}
	}

	cur, err := wal.CursorAt(from)
	if err != nil {
		writeTailError(w, err)
		return
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	var recs []TailRecord
	var lastSeq uint64
	for polling := wait > 0; ; {
		// Long-poll ordering: the append notification channel is grabbed
		// BEFORE the read, so an append that lands between the read and
		// the park still wakes the poll — no missed-wakeup window.
		notify := wal.AppendNotify()
		if recs, cur, lastSeq, err = wal.ReadTail(cur, maxBytes); err != nil {
			writeTailError(w, err)
			return
		}
		if len(recs) > 0 || !polling {
			break
		}
		select {
		case <-notify:
		case <-deadline.C:
			polling = false
		case <-r.Context().Done():
			return
		case <-s.done:
			polling = false
		}
	}

	h := w.Header()
	if e := s.role.Load().epoch; e > 0 {
		// Fencing news travels with the tail: the follower adopts a newer
		// epoch from this header without waiting for the control plane.
		h.Set("X-KB2-Epoch", strconv.FormatInt(e, 10))
	}
	size := 0
	for _, rec := range recs {
		size += len(rec.Raw)
	}
	h.Set("Content-Type", walTailType)
	h.Set("Content-Length", strconv.Itoa(size))
	h.Set("X-KB2-WAL-Last-Seq", strconv.FormatUint(lastSeq, 10))
	for _, rec := range recs {
		w.Write(rec.Raw)
	}
}

// writeTailError maps tail read failures onto the protocol: truncated
// history is 410 Gone with the oldest surviving sequence (the follower
// must snapshot-bootstrap), anything else is a 500.
func writeTailError(w http.ResponseWriter, err error) {
	var trunc *TailTruncatedError
	if errors.As(err, &trunc) {
		daemon.WriteJSON(w, http.StatusGone, map[string]any{
			"error":      "wal history truncated",
			"oldest_seq": trunc.OldestSeq,
		})
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// handleSnapshot serves the newest durable checkpoint blob — the follower
// bootstrap path when the tail answers 410. The checkpoint file is
// written atomically (tmp + rename), so a plain read never observes a
// partial write.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.CheckpointPath == "" {
		http.Error(w, "checkpoints disabled: no snapshot to serve", http.StatusNotFound)
		return
	}
	blob, err := s.fs.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, os.ErrNotExist) {
			code = http.StatusNotFound
		}
		http.Error(w, "no snapshot: "+err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// walTailReader reads a GET /wal body — bytes from another process, so a
// record's length prefix is a claim, not an allocation request: the
// record buffer grows with the bytes that actually arrive, and every
// record goes through parseWALRecord, the decoder of every stored record.
// Next returns io.EOF when the body ends on a record boundary; a body cut
// mid-record surfaces io.ErrUnexpectedEOF, and the follower resumes from
// its last applied sequence. Every record it returns passed its CRC check.
type walTailReader struct {
	br  *bufio.Reader
	buf bytes.Buffer
}

func newWALTailReader(r io.Reader) *walTailReader {
	return &walTailReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next record; its Entry and Raw alias the reader's
// buffer until the following call.
func (t *walTailReader) Next() (TailRecord, error) {
	var hdr [walRecHdrSize]byte // len | crc
	if _, err := io.ReadFull(t.br, hdr[:]); err != nil {
		return TailRecord{}, err
	}
	t.buf.Reset()
	t.buf.Write(hdr[:])
	r := wire.NewReader("wal tail", hdr[:])
	// An implausible length reads nothing more: parseWALRecord refuses it.
	if n := r.U32(); n <= walMaxRecord {
		if _, err := io.CopyN(&t.buf, t.br, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return TailRecord{}, err
		}
	}
	rec, _, reason := parseWALRecord(t.buf.Bytes())
	if reason != "" {
		return TailRecord{}, fmt.Errorf("bad record: %s", reason)
	}
	return rec, nil
}
