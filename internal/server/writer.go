package server

import (
	"fmt"
	"math"
	"time"

	"keybin2/internal/linalg"
	"keybin2/internal/obs"
)

// The writer side: the single goroutine that owns the stream. It applies
// accepted batches in WAL order, replays WAL records (startup recovery and
// the follower tail share one path), and checkpoints.

// serve is the node's role loop: the single goroutine that owns the
// stream runs the writer loop while primary and the tail loop while
// following, switching in place on promote/demote — ownership of the
// stream never has a gap or a second owner.
func (s *Server) serve() {
	defer s.wg.Done()
	for {
		var again bool
		if s.role.Load().kind == roleFollower {
			again = s.followLoop()
		} else {
			again = s.runLoop()
		}
		if !again {
			return
		}
	}
}

// runLoop is the writer loop body: serve() runs it while the node is a
// primary. Returns false on shutdown, true after a demotion switched the
// node's role (serve() re-enters as followLoop on this same goroutine).
func (s *Server) runLoop() bool {
	var ckptC <-chan time.Time
	if s.cfg.CheckpointPath != "" {
		t := time.NewTicker(s.cfg.CheckpointEvery)
		defer t.Stop()
		ckptC = t.C
	}
	for {
		select {
		case it := <-s.queue:
			s.apply(it)
		case resp := <-s.histC:
			s.exportHist(resp)
		case req := <-s.roleCh:
			err := errAlreadyPrimary
			if req.change.op == opRejoin {
				err = s.demote(req.change.target)
			}
			req.done <- roleResult{err: err, role: *s.role.Load(), appliedSeq: s.appliedSeqA.Load()}
			if err == nil {
				return true // now a follower; serve() switches loops
			}
		case <-ckptC:
			s.checkpoint()
		case <-s.done:
			// Drain: Stop flipped draining under the write lock first, so
			// nothing is added behind this loop.
			for {
				select {
				case it := <-s.queue:
					s.apply(it)
				default:
					s.checkpoint()
					return false
				}
			}
		}
	}
}

// apply feeds one accepted batch into the stream through applyBatch. It
// closes out the writer's share of the batch's trace: an "apply" span
// around the batch ingest, plus whatever stage spans the stream reported
// through RecordStage (a periodic refit lands here). The pooled batch is
// released once the stream has consumed it — the stream bins out of the
// aliased wire buffer and retains nothing from it.
func (s *Server) apply(it ingestItem) {
	b := it.batch
	var applySpan *obs.Span
	if it.trace != nil {
		s.curTrace = it.trace
		applySpan = it.trace.Span("apply", obs.KV("points", b.M.Rows))
	}
	s.applyBatch(it.seq, it.producer, it.pseq, &b.M)
	if it.trace != nil {
		applySpan.End()
		s.curTrace = nil
		it.trace.Finish()
	}
	b.Release()
}

// applyBatch is the one apply step behind live traffic, WAL replay and
// the follower tail: it feeds the batch of WAL sequence seq into the
// stream and advances the applied horizon, the producer's applied
// sequence and the mirrored counters the read path serves. A batch the
// stream refuses is logged and passed over, never retried: its record is
// in the log either way, and every replica of that log passes it over
// alike. The caller must be the goroutine owning the stream.
func (s *Server) applyBatch(seq uint64, producer string, pseq uint64, m *linalg.Matrix) {
	st := s.stream.Load()
	if _, err := st.IngestBatch(m); err != nil {
		// Dimensionality was validated before the batch got here, so an
		// error is the stream's own (a refit, or a warm-up range) —
		// record it; the daemon keeps serving the previous model.
		e := fmt.Errorf("server: ingest seq %d: %w", seq, err)
		s.writerErr.Store(&e)
		s.logf("ingest error: seq %d: %v", seq, err)
	}
	s.appliedSeq = seq
	s.appliedSeqA.Store(seq)
	if producer != "" && pseq > 0 {
		s.appliedProducers[producer] = pseq
	}
	s.batches.Add(1)
	s.seen.Store(int64(st.Seen()))
	s.refits.Store(s.refitBase + int64(st.Refits()))
}

// checkpoint writes the stream state durably (tmp + fsync + rename +
// parent-dir fsync) with the covered WAL position in its metadata, then
// truncates WAL segments the checkpoint covers. Before warmup there is
// no state worth saving; that case is skipped silently.
func (s *Server) checkpoint() {
	if s.cfg.CheckpointPath == "" {
		return
	}
	ckptStart := time.Now()
	wal := s.wal.Load()
	if wal != nil {
		// The checkpoint claims coverage through appliedSeq, and with the
		// pipelined writer apply can outrun the group-commit fsync. Sync
		// first, or a crash could leave a durable checkpoint covering WAL
		// records that never reached the disk — a false WALStaleError on
		// the next start.
		if err := wal.Sync(); err != nil {
			s.logf("checkpoint: wal sync: %v", err)
			return
		}
	}
	var meta []byte
	if wal != nil || len(s.appliedProducers) > 0 || s.role.Load().kind == roleFollower {
		meta = encodeWALCkptMeta(s.appliedSeq, s.appliedProducers)
	}
	blob, err := s.stream.Load().EncodeWithMeta(meta)
	if err != nil {
		return // pre-warmup: nothing to save yet
	}
	if err := writeFileDurable(s.fs, s.cfg.CheckpointPath, blob, 0o644); err != nil {
		s.logf("checkpoint: %v", err)
		return
	}
	s.coveredSeq.Store(s.appliedSeq)
	if wal != nil {
		if err := wal.TruncateThrough(s.appliedSeq); err != nil {
			s.logf("checkpoint: wal truncation: %v", err)
		}
	}
	s.lastCkpt.Store(time.Now().Unix())
	s.tel.ckpts.Inc()
	s.tel.ckptSec.Observe(time.Since(ckptStart).Seconds())
	s.logf("checkpoint: %d points, %d bytes, covers wal seq %d", s.stream.Load().Seen(), len(blob), s.appliedSeq)
}

// replayWAL applies every WAL record past the applied horizon to the
// restored stream, skipping producer-sequence duplicates (a batch can
// appear twice when a client retried after a lost ack). It reads the way
// a follower does: a cursor at appliedSeq, then one segment per read. A
// log whose oldest record lies past appliedSeq+1 is refused with
// *TailTruncatedError — replaying over the hole would lose acked batches.
// Runs on the goroutine that owns the stream (before Start, or promote).
func (s *Server) replayWAL(wal *WAL) error {
	from := s.appliedSeq
	cur, err := wal.CursorAt(from)
	for recs := []TailRecord(nil); err == nil; {
		if recs, cur, _, err = wal.readTail(cur, math.MaxInt, true); len(recs) == 0 {
			break
		}
		for _, r := range recs {
			rows, applied, aerr := s.applyWALEntry(r.Seq, r.Entry)
			if aerr != nil {
				return fmt.Errorf("server: wal replay seq %d: %w", r.Seq, aerr)
			}
			if applied {
				s.replayedB++
				s.replayedP += int64(rows)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("server: wal replay past seq %d: %w", from, err)
	}
	if s.replayedB > 0 {
		s.logf("wal: replayed %d batches (%d points) past checkpoint seq %d",
			s.replayedB, s.replayedP, from)
	}
	return nil
}

// applyWALEntry decodes one WAL entry and applies its batch through
// applyBatch, the step live traffic takes — one code path is what makes a
// replica byte-identical to a primary that replayed the same log. It is
// shared by startup recovery and the follower tail loop. A batch from the
// log never passed this node's edge, so the edge's dedupe horizon is
// raised here; a live batch raised it at accept, and the apply loop takes
// no lock the accept path holds across its WAL append. An entry that does
// not decode, or a batch of other dimensionality than the stream, is an
// error: that is a log this node cannot follow. The caller must be the
// goroutine owning the stream. Returns the batch's row count and whether
// it was applied (false = producer-sequence duplicate).
func (s *Server) applyWALEntry(seq uint64, entry []byte) (rows int, applied bool, err error) {
	producer, pseq, raw, err := decodeWALEntry(entry)
	if err != nil {
		return 0, false, err
	}
	if producer != "" && pseq > 0 {
		if last, ok := s.appliedProducers[producer]; ok && pseq <= last {
			s.appliedSeq = seq // duplicate append; first copy already applied
			s.appliedSeqA.Store(seq)
			return 0, false, nil
		}
	}
	b, err := DecodeBatchAlias(raw, 0)
	if err != nil {
		return 0, false, err
	}
	defer b.Release()
	if b.M.Cols != s.cfg.Stream.Dims {
		return 0, false, fmt.Errorf("batch has %d dims, stream expects %d", b.M.Cols, s.cfg.Stream.Dims)
	}
	s.applyBatch(seq, producer, pseq, &b.M)
	if producer != "" && pseq > 0 {
		s.ingestMu.Lock()
		if s.lastSeen[producer] < pseq {
			s.lastSeen[producer] = pseq
		}
		s.ingestMu.Unlock()
	}
	return b.M.Rows, true, nil
}
