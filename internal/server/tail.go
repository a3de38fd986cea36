package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"keybin2/internal/daemon"
	"keybin2/internal/wire"
)

// The replication wire protocol (GET /wal?from=<seq>): one response is a
// stream header followed by frames, little endian throughout.
//
//	header: "KB2T" | u32 version
//	'S' frame: u64 segFirst            — the records that follow come from
//	                                     the primary segment starting here
//	'R' frame: u64 seq | u32 len | entry | u32 crc32c(seq||entry)
//	'E' frame: u64 lastSeq             — end of response; the primary's
//	                                     newest sequence at read time
//
// Each response is one bounded tail round: the follower applies the 'R'
// frames, remembers the 'E' horizon, and issues the next request from its
// new applied sequence. `wait` turns a caught-up request into a long poll
// (the handler parks on the WAL's append notification), so a current
// follower replicates with one in-flight request and no busy polling.
//
// Query parameters: from (required resume point: last applied sequence),
// wait (Go duration; long-poll when caught up), max_bytes (payload budget
// per response, default 1 MiB). A `from` below the log's oldest record
// answers 410 Gone with {"oldest_seq": n} — the follower must re-bootstrap
// from GET /snapshot.

const (
	tailMagic        = "KB2T"
	tailProtoVersion = 1

	tailFrameSegment = 'S'
	tailFrameRecord  = 'R'
	tailFrameEnd     = 'E'
)

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

	if e := s.role.Load().epoch; e > 0 {
		// Fencing news travels with the tail: the follower adopts a newer
		// epoch from this header without waiting for the control plane.
		w.Header().Set("X-KB2-Epoch", strconv.FormatInt(e, 10))
	}
	w.Header().Set("Content-Type", "application/x-kb2-tail")
	bw := bufio.NewWriterSize(w, 64<<10)
	// Each frame's fixed fields go through fw, emptied after each write.
	var scratch [13]byte
	fw := wire.Writer{Buf: scratch[:0]}
	flush := func() {
		bw.Write(fw.Buf)
		fw.Buf = fw.Buf[:0]
	}
	fw.Str(tailMagic)
	fw.U32(tailProtoVersion)
	flush()
	curSeg := uint64(0)
	haveSeg := false
	for _, rec := range recs {
		if !haveSeg || rec.SegFirst != curSeg {
			curSeg, haveSeg = rec.SegFirst, true
			fw.U8(tailFrameSegment)
			fw.U64(curSeg)
			flush()
		}
		fw.U8(tailFrameRecord)
		fw.U64(rec.Seq)
		fw.U32(uint32(len(rec.Entry)))
		flush()
		bw.Write(rec.Entry)
		fw.U32(rec.CRC) // the stored crc32c(seq‖entry)
		flush()
	}
	fw.U8(tailFrameEnd)
	fw.U64(lastSeq)
	flush()
	bw.Flush()
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

// tailFrame is one decoded frame from a tail response.
type tailFrame struct {
	Kind byte
	// Seq is the record's sequence ('R'), the segment's first sequence
	// ('S'), or the primary's newest sequence ('E').
	Seq   uint64
	Entry []byte // 'R'; aliases the reader's buffer until the next Next
}

// tailFrameReader decodes a tail response body — bytes from another
// process, so a length prefix is a claim, not an allocation request: the
// entry buffer grows with the bytes that actually arrive. Next returns
// io.EOF after the 'E' frame's underlying stream ends; a response that
// ends without an 'E' frame (connection cut mid-stream) surfaces
// io.ErrUnexpectedEOF, and the follower resumes from its last applied
// sequence. Every 'R' frame it returns passed its CRC check.
type tailFrameReader struct {
	br    *bufio.Reader
	buf   bytes.Buffer
	began bool
}

func newTailFrameReader(r io.Reader) *tailFrameReader {
	return &tailFrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

func (t *tailFrameReader) Next() (tailFrame, error) {
	if !t.began {
		var hdr [8]byte
		if _, err := io.ReadFull(t.br, hdr[:]); err != nil {
			return tailFrame{}, err
		}
		r := wire.NewReader("tail", hdr[:])
		if magic := r.Bytes(4); string(magic) != tailMagic {
			return tailFrame{}, fmt.Errorf("tail: bad stream magic %q", magic)
		}
		if v := r.U32(); v != tailProtoVersion {
			return tailFrame{}, fmt.Errorf("tail: protocol version %d unsupported", v)
		}
		t.began = true
	}
	kind, err := t.br.ReadByte()
	if err != nil {
		return tailFrame{}, err
	}
	f := tailFrame{Kind: kind}
	var hdr [12]byte // u64, then the u32 entry length of an 'R' frame
	n := 8
	if kind == tailFrameRecord {
		n = 12
	} else if kind != tailFrameSegment && kind != tailFrameEnd {
		return f, fmt.Errorf("tail: unknown frame kind %q", kind)
	}
	if _, err := io.ReadFull(t.br, hdr[:n]); err != nil {
		return f, err
	}
	r := wire.NewReader("tail", hdr[:n])
	if f.Seq = r.U64(); kind != tailFrameRecord {
		return f, nil
	}
	size := r.U32()
	if size > walMaxRecord {
		return f, fmt.Errorf("tail: record of %d bytes exceeds limit", size)
	}
	t.buf.Reset()
	if _, err := io.CopyN(&t.buf, t.br, int64(size)+4); err != nil { // entry | crc
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return f, err
	}
	body := wire.NewReader("tail", t.buf.Bytes())
	f.Entry = body.Bytes(int(size))
	if crc32.Update(crc32.Checksum(hdr[:8], walCRCTable), walCRCTable, f.Entry) != body.U32() {
		return f, fmt.Errorf("tail: record crc mismatch at seq %d", f.Seq)
	}
	return f, nil
}
