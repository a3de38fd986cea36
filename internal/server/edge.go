package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"keybin2/internal/daemon"
	"keybin2/internal/obs"
)

// Handler returns the HTTP API: the daemon chassis routes (daemon.Mux:
// /metrics, /trace, /healthz, gated /debug/pprof/*) plus the table below.
// What each route answers is documented once, in cmd/keybin2d's package
// doc. Read endpoints answer GET (and HEAD) only; write endpoints answer
// POST only; anything else is 405 with an Allow header.
//
// Ingest requests may carry X-Producer and X-Batch-Seq headers; a batch
// whose producer sequence was already acknowledged is re-acked as a
// duplicate without being applied, making retries after a lost ack
// idempotent.
func (s *Server) Handler() http.Handler {
	mux := daemon.Mux(s.tel.reg, s.tracer, s.cfg.EnablePprof)
	mux.HandleFunc("/ingest", s.instrument("ingest", daemon.POST(s.handleIngest)))
	mux.HandleFunc("/label", s.instrument("label", daemon.POST(s.handleLabel)))
	mux.HandleFunc("/model", s.instrument("model", daemon.GET(s.handleModel)))
	mux.HandleFunc("/stats", s.instrument("stats", daemon.GET(s.handleStats)))
	mux.HandleFunc("/readyz", daemon.GET(s.handleReady))
	mux.HandleFunc("/wal", daemon.GET(s.handleWALTail))
	mux.HandleFunc("/snapshot", daemon.GET(s.handleSnapshot))
	mux.HandleFunc("/promote", daemon.POST(s.handlePromote))
	mux.HandleFunc("/fence", daemon.POST(s.handleFence))
	mux.HandleFunc("/epoch", daemon.POST(s.handleEpoch))
	mux.HandleFunc("/hist", s.instrument("hist", daemon.GET(s.handleHist)))
	mux.HandleFunc("/hist/install", s.instrument("hist_install", daemon.POST(s.handleHistInstall)))
	return mux
}

// instrument times a handler into the per-endpoint latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.tel.httpSec.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	}
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
		WALLag uint64 `json:"wal_lag_records,omitempty"`
	}
	resp := readiness{Ready: true}
	s.drainMu.RLock()
	if s.draining {
		resp = readiness{Reason: "draining"}
	}
	s.drainMu.RUnlock()
	if wal := s.wal.Load(); resp.Ready && wal != nil {
		ws := wal.Stats()
		if ws.Err != "" {
			resp = readiness{Reason: "wal wedged: " + ws.Err}
		} else if cov := s.coveredSeq.Load(); ws.LastSeq > cov {
			resp.WALLag = ws.LastSeq - cov
		}
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	daemon.WriteJSON(w, status, resp)
}

// ReadRequest reads r's body with ReadBody. On failure it answers the
// request itself — 413 for a body over limit, 400 otherwise — and returns
// nil.
func ReadRequest(w http.ResponseWriter, r *http.Request, limit int64) *Body {
	bb, err := ReadBody(r.Body, r.ContentLength, limit)
	if err != nil {
		refuse(w, err)
	}
	return bb
}

// refuse answers a request whose body was refused: 413 for one over a
// size limit, 400 otherwise.
func refuse(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrBodyTooLarge) || errors.Is(err, ErrBatchTooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), code)
}

// readBatch validates and decodes the request body into a pooled Batch
// whose matrix aliases the (pooled, alignment-padded) body buffer when
// the host allows it. The caller owns the result and must Release it —
// the ingest path hands that duty to the writer goroutine. A nil return
// means the response was already written.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request) *Batch {
	bb := ReadRequest(w, r, int64(batchHeaderSize+8*s.cfg.MaxBatchPoints*s.cfg.Stream.Dims))
	if bb == nil {
		return nil
	}
	b, err := DecodeBatchAlias(bb.Bytes(), s.cfg.MaxBatchPoints)
	if err != nil {
		bb.Release()
		refuse(w, err)
		return nil
	}
	b.body = bb
	if b.M.Cols != s.cfg.Stream.Dims {
		cols := b.M.Cols
		b.Release()
		http.Error(w, fmt.Sprintf("batch has %d dims, stream expects %d", cols, s.cfg.Stream.Dims), http.StatusBadRequest)
		return nil
	}
	return b
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ingestStart := time.Now()
	reqEpoch, err := requestEpoch(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Fencing first, before touching the body.
	me := s.role.Load()
	if !me.admits(reqEpoch) {
		s.refuseWrite(w, me, reqEpoch)
		return
	}
	b := s.readBatch(w, r)
	if b == nil {
		return
	}
	rows := b.M.Rows
	producer := r.Header.Get("X-Producer")
	var pseq uint64
	if v := r.Header.Get("X-Batch-Seq"); v != "" {
		var err error
		pseq, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			b.Release()
			http.Error(w, "bad X-Batch-Seq: "+err.Error(), http.StatusBadRequest)
			return
		}
	}

	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		b.Release()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	s.ingestMu.Lock()
	// backOut leaves the accept path without the batch having been queued;
	// answers are written after it, never under the locks.
	backOut := func() {
		s.ingestMu.Unlock()
		s.drainMu.RUnlock()
		b.Release()
	}
	// Re-check under ingestMu: a fence that landed after the entry check
	// must not let this batch into the WAL — demote() takes ingestMu as
	// its drain barrier, so a batch that passes here is guaranteed to be
	// applied before the role turns follower.
	if me = s.role.Load(); !me.admits(reqEpoch) {
		backOut()
		s.refuseWrite(w, me, reqEpoch)
		return
	}
	if producer != "" && pseq > 0 && pseq <= s.lastSeen[producer] {
		backOut()
		// A duplicate ack re-promises the original's durability. With the
		// WAL wedged that promise may not be keepable (the original's
		// group commit could be the very fsync that failed), so fail the
		// retry instead of acking it.
		if wal := s.wal.Load(); wal != nil {
			if err := wal.Wedged(); err != nil {
				s.tel.batchError.Inc()
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		s.tel.batchDuplicate.Inc()
		writeAck(w, me, ack{Duplicate: true})
		return
	}
	// Exact queue-full check: every enqueue holds ingestMu, so a passing
	// check cannot be invalidated before the insert below. Checking
	// before the WAL append means a backpressure rejection writes
	// nothing — no orphan records for unacknowledged batches.
	if len(s.queue) == cap(s.queue) {
		backOut()
		s.tel.batchRejected.Inc()
		// Retry-After carries whole seconds per RFC 9110, so the hint is
		// rounded UP (minimum 1): truncation would turn a sub-second hint
		// into "0", telling well-behaved clients to retry immediately and
		// defeating the backpressure. The precise hint rides a dedicated
		// millisecond header for the Go client.
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(s.cfg.RetryAfter.Milliseconds(), 10))
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	// The batch is past validation, dedupe, and backpressure: it will be
	// acknowledged (or fail loudly). Start its trace; the "ingest" span
	// covers decode, validation, and the accept-path locking so far.
	// A traceparent header joins the caller's distributed trace — the
	// ingest→wal_append→fsync→apply chain becomes child spans of the
	// client's (or router's) trace, reconstructable across processes by
	// the shared trace ID.
	tr := daemon.StartTrace(s.tracer, r.Header, "ingest_batch",
		obs.KV("points", rows), obs.KV("producer", producer), obs.KV("pseq", pseq))
	tr.AddSpan("ingest", ingestStart, time.Since(ingestStart))
	seq := s.nextSeq + 1
	waitDurable := false
	wal := s.wal.Load()
	if wal != nil {
		wstart := time.Now()
		// Two-part append: the small header is framed into a reusable
		// buffer and the raw KB2B bytes ride as-is — the WAL concatenates
		// them into one record without this path copying the batch.
		s.walHdrBuf = encodeWALEntryHeader(s.walHdrBuf[:0], producer, pseq)
		res, err := wal.Append(s.walHdrBuf, b.Raw())
		if err != nil {
			backOut()
			// The batch was NOT acknowledged and is not in the queue;
			// the contract holds. The WAL is wedged, so /readyz now
			// fails and every further ingest lands here until the
			// operator intervenes.
			s.failIngest(w, tr, err)
			return
		}
		seq = res.Seq
		waitDurable = s.fsync == FsyncAlways
		s.tel.walAppends.Inc()
		s.tel.walAppendBytes.Add(int64(res.Bytes))
		tr.AddSpan("wal_append", wstart, time.Since(wstart),
			obs.KV("seq", res.Seq), obs.KV("bytes", res.Bytes))
	}
	s.nextSeq = seq
	if producer != "" && pseq > 0 {
		s.lastSeen[producer] = pseq
	}
	tr.AddAttrs(obs.KV("seq", seq))
	if waitDurable {
		// The trace has two finishers from here on: the writer (after
		// apply) and this handler (after the durability wait). The trace
		// seals on whichever finishes second.
		tr.RequireFinishes(2)
	}
	// The enqueue span is recorded before the send: once the item is in
	// the queue the writer goroutine owns (and may immediately finish)
	// the trace.
	tr.AddSpan("enqueue", time.Now(), 0, obs.KV("queue_len", len(s.queue)))
	// Guaranteed not to block: the capacity check above is exact under
	// ingestMu. The select is a belt-and-braces fallback.
	select {
	case s.queue <- ingestItem{batch: b, seq: seq, producer: producer, pseq: pseq, trace: tr}:
	default:
		backOut()
		s.tel.batchError.Inc()
		tr.AddAttrs(obs.KV("error", "queue full after wal append"))
		tr.Finish()
		if waitDurable {
			tr.Finish() // the writer will never see this batch; finish its share too
		}
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	s.ingestMu.Unlock()
	s.drainMu.RUnlock()
	// Pipelined commit: the batch is already queued — the writer may be
	// applying it while its fsync is still in flight — and the durability
	// wait happens outside the locks, so concurrent producers coalesce
	// onto one group-commit fsync instead of serializing behind each
	// other's.
	if waitDurable {
		fstart := time.Now()
		sw, err := wal.WaitDurable(seq)
		if err != nil {
			// The batch is queued (the stream will still apply it) but its
			// durability could not be confirmed: no ack. The WAL is wedged
			// and /readyz fails until the operator intervenes.
			s.failIngest(w, tr, err)
			return
		}
		tr.AddSpan("fsync", fstart, time.Since(fstart),
			obs.KV("group", sw.Group), obs.KV("coalesced", sw.Coalesced))
		if sw.Coalesced {
			s.tel.walCoalesced.Inc()
		} else {
			s.tel.walGroupSize.Observe(float64(sw.Group))
		}
		tr.Finish()
	}
	// Late-ack fencing: a fence may have landed while this batch waited on
	// the group commit. The batch is durable locally and will be drained
	// by the demotion, but a 202 now would be a promise made past the
	// fence line — the caller must re-send to the new primary instead.
	if me = s.role.Load(); !me.admits(reqEpoch) {
		s.refuseWrite(w, me, reqEpoch)
		return
	}
	s.tel.acceptedPoints.Add(int64(rows))
	s.tel.batchAccepted.Inc()
	writeAck(w, me, ack{Queued: rows, Seq: seq})
}

// ack is the /ingest 202 body. Its fields are in key order, so it encodes
// to the bytes a map of the same keys gave.
type ack struct {
	Duplicate bool   `json:"duplicate,omitempty"`
	Epoch     int64  `json:"epoch,omitempty"`
	Queued    int    `json:"queued"`
	Seq       uint64 `json:"seq,omitempty"`
}

// writeAck answers 202 with the ack body. Under a managed epoch the ack
// carries it, so clients learn fencing news from normal traffic (and arm
// their own tokens for zombie rejection).
func writeAck(w http.ResponseWriter, me *role, a ack) {
	if me.epoch > 0 {
		w.Header().Set("X-KB2-Epoch", strconv.FormatInt(me.epoch, 10))
		a.Epoch = me.epoch
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(a)
}

// failIngest answers a batch whose WAL append or durability wait failed:
// no ack, the error on the batch's trace and in the log.
func (s *Server) failIngest(w http.ResponseWriter, tr *obs.Trace, err error) {
	s.tel.batchError.Inc()
	tr.AddAttrs(obs.KV("error", err.Error()))
	tr.Finish()
	s.logf("ingest: %v", err)
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// labelResponse is the /label reply. ModelGen 0 means no model has been
// published yet (warmup) and every label is noise.
type labelResponse struct {
	Labels   []int `json:"labels"`
	ModelGen int64 `json:"model_gen"`
	Clusters int   `json:"clusters"`
}

func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	b := s.readBatch(w, r)
	if b == nil {
		return
	}
	defer b.Release()
	var resp labelResponse
	if m, gen := s.servingModel(); m == nil {
		resp.Labels = make([]int, b.M.Rows)
		for i := range resp.Labels {
			resp.Labels[i] = -1
		}
	} else {
		labels, err := m.AssignBatch(&b.M, 1)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp.Labels, resp.ModelGen, resp.Clusters = labels, gen, m.K()
	}
	s.tel.labeledPoints.Add(int64(b.M.Rows))
	daemon.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m, gen := s.servingModel()
	if m == nil {
		http.Error(w, "no model yet (stream warming up)", http.StatusNotFound)
		return
	}
	blob := m.Encode()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-Gen", strconv.FormatInt(gen, 10))
	w.Write(blob)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, s.Stats())
}
