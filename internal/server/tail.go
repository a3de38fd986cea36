package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"keybin2/internal/daemon"
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
	// Long-poll ordering: the append notification channel is grabbed
	// BEFORE the read, so an append that lands between the read and the
	// park still wakes the poll — no missed-wakeup window.
	notify := wal.AppendNotify()
	recs, cur, lastSeq, err := wal.ReadTail(cur, maxBytes)
	if err != nil {
		writeTailError(w, err)
		return
	}
	if len(recs) == 0 && wait > 0 {
		deadline := time.NewTimer(wait)
		defer deadline.Stop()
	poll:
		for len(recs) == 0 {
			select {
			case <-notify:
			case <-deadline.C:
				break poll
			case <-r.Context().Done():
				return
			case <-s.done:
				break poll
			}
			notify = wal.AppendNotify()
			recs, cur, lastSeq, err = wal.ReadTail(cur, maxBytes)
			if err != nil {
				writeTailError(w, err)
				return
			}
		}
	}

	if e := s.role.Load().epoch; e > 0 {
		// Fencing news travels with the tail: the follower adopts a newer
		// epoch from this header without waiting for the control plane.
		w.Header().Set("X-KB2-Epoch", strconv.FormatInt(e, 10))
	}
	w.Header().Set("Content-Type", "application/x-kb2-tail")
	bw := bufio.NewWriterSize(w, 64<<10)
	var scratch [13]byte
	copy(scratch[:4], tailMagic)
	binary.LittleEndian.PutUint32(scratch[4:8], tailProtoVersion)
	bw.Write(scratch[:8])
	curSeg := uint64(0)
	haveSeg := false
	for _, rec := range recs {
		if !haveSeg || rec.SegFirst != curSeg {
			curSeg, haveSeg = rec.SegFirst, true
			scratch[0] = tailFrameSegment
			binary.LittleEndian.PutUint64(scratch[1:9], curSeg)
			bw.Write(scratch[:9])
		}
		scratch[0] = tailFrameRecord
		binary.LittleEndian.PutUint64(scratch[1:9], rec.Seq)
		binary.LittleEndian.PutUint32(scratch[9:13], uint32(len(rec.Entry)))
		bw.Write(scratch[:13])
		bw.Write(rec.Entry)
		crc := crc32.Checksum(scratch[1:9], walCRCTable)
		crc = crc32.Update(crc, walCRCTable, rec.Entry)
		binary.LittleEndian.PutUint32(scratch[:4], crc)
		bw.Write(scratch[:4])
	}
	scratch[0] = tailFrameEnd
	binary.LittleEndian.PutUint64(scratch[1:9], lastSeq)
	bw.Write(scratch[:9])
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
	Kind     byte
	Seq      uint64 // 'R'
	SegFirst uint64 // 'S'
	LastSeq  uint64 // 'E'
	Entry    []byte // 'R'; aliases the reader's buffer until the next Next
}

// tailFrameReader decodes a tail response body. Next returns io.EOF after
// the 'E' frame's underlying stream ends; a response that ends without an
// 'E' frame (connection cut mid-stream) surfaces io.ErrUnexpectedEOF, and
// the follower resumes from its last applied sequence.
type tailFrameReader struct {
	br    *bufio.Reader
	buf   []byte
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
		if string(hdr[:4]) != tailMagic {
			return tailFrame{}, fmt.Errorf("tail: bad stream magic %q", hdr[:4])
		}
		if v := binary.LittleEndian.Uint32(hdr[4:]); v != tailProtoVersion {
			return tailFrame{}, fmt.Errorf("tail: protocol version %d unsupported", v)
		}
		t.began = true
	}
	kind, err := t.br.ReadByte()
	if err != nil {
		return tailFrame{}, err
	}
	switch kind {
	case tailFrameSegment, tailFrameEnd:
		var u [8]byte
		if _, err := io.ReadFull(t.br, u[:]); err != nil {
			return tailFrame{}, err
		}
		v := binary.LittleEndian.Uint64(u[:])
		if kind == tailFrameSegment {
			return tailFrame{Kind: kind, SegFirst: v}, nil
		}
		return tailFrame{Kind: kind, LastSeq: v}, nil
	case tailFrameRecord:
		var hdr [12]byte
		if _, err := io.ReadFull(t.br, hdr[:]); err != nil {
			return tailFrame{}, err
		}
		n := binary.LittleEndian.Uint32(hdr[8:])
		if n > walMaxRecord {
			return tailFrame{}, fmt.Errorf("tail: record of %d bytes exceeds limit", n)
		}
		if cap(t.buf) < int(n) {
			t.buf = make([]byte, n)
		}
		t.buf = t.buf[:n]
		if _, err := io.ReadFull(t.br, t.buf); err != nil {
			return tailFrame{}, err
		}
		var crcB [4]byte
		if _, err := io.ReadFull(t.br, crcB[:]); err != nil {
			return tailFrame{}, err
		}
		crc := crc32.Checksum(hdr[:8], walCRCTable)
		crc = crc32.Update(crc, walCRCTable, t.buf)
		if crc != binary.LittleEndian.Uint32(crcB[:]) {
			return tailFrame{}, fmt.Errorf("tail: record crc mismatch at seq %d", binary.LittleEndian.Uint64(hdr[:8]))
		}
		return tailFrame{Kind: kind, Seq: binary.LittleEndian.Uint64(hdr[:8]), Entry: t.buf}, nil
	default:
		return tailFrame{}, fmt.Errorf("tail: unknown frame kind %q", kind)
	}
}
