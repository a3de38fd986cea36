package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
)

// The layer ladder pushes one sample of batches through each rung of
// the ingest path alone — encode, decode, WAL append, Stream.IngestBatch,
// the HTTP handler in-process, the client over loopback, the router —
// one call at a time against an idle system, so that adjacent rungs
// subtract to a layer's own cost. It runs after the timed phases, on
// the daemons those phases warmed.

// stageTimes collects what core.Stream reports through obs.Recorder.
type stageTimes struct{ refitMs []float64 }

func (s *stageTimes) RecordStage(stage string, d time.Duration) {
	if stage == "refit" {
		s.refitMs = append(s.refitMs, float64(d.Nanoseconds())/1e6)
	}
}

// discardWriter is the ResponseWriter of an in-process handler call.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// timeCalls times n calls of fn one at a time and returns each call's
// microseconds. settle runs after every call, outside the timing: it is
// where the caller waits for the daemon to go idle again.
func (w *serving) timeCalls(parent int, span string, n int, fn func(i int) error, settle func() error) ([]float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := fn(i)
		t1 := time.Now()
		w.rec.add(parent, span, t0, t1)
		w.rep.attempted.Add(1)
		if err != nil {
			w.rep.failed.Add(1)
			return nil, fmt.Errorf("%s call %d: %w", span, i, err)
		}
		us = append(us, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if settle != nil {
			if err := settle(); err != nil {
				return nil, fmt.Errorf("%s call %d: %w", span, i, err)
			}
		}
	}
	return us, nil
}

// coreRungs measures the stream kernels on decoded batches with no
// server around them.
func (w *serving) coreRungs(parent int, mats []*linalg.Matrix) (*core.Stream, error) {
	rep, rec, queries := w.rep, w.rec, w.in.queries
	id := rec.begin(parent, "ladder.core")
	defer rec.end(id)
	st, err := core.NewStream(streamConfig())
	if err != nil {
		return nil, err
	}
	stages := &stageTimes{}
	st.SetRecorder(stages)
	var points int
	t0 := time.Now()
	for _, m := range mats {
		if _, err := st.IngestBatch(m); err != nil {
			return nil, err
		}
		points += m.Rows
	}
	t1 := time.Now()
	rec.add(id, "core.ingest_batch", t0, t1)
	var refitNs float64
	for _, ms := range stages.refitMs {
		refitNs += ms * 1e6
	}
	rep.set("core.ingest_batch_ns_per_pt", (float64(t1.Sub(t0).Nanoseconds())-refitNs)/float64(points))
	rep.set("core.refit_ms", median(stages.refitMs))
	rep.set("core.refits", float64(st.Refits()))

	model := st.Snapshot()
	if model == nil {
		return nil, fmt.Errorf("stream has no model after %d points", points)
	}
	points = 0
	t0 = time.Now()
	for _, q := range queries {
		if _, err := model.AssignBatch(q, 1); err != nil {
			return nil, err
		}
		points += q.Rows
	}
	t1 = time.Now()
	rec.add(id, "core.assign", t0, t1)
	rep.set("core.assign_ns_per_pt", float64(t1.Sub(t0).Nanoseconds())/float64(points))
	return st, nil
}

func (w *serving) ladder(parent int) error {
	id := w.rec.begin(parent, "phase.ladder")
	defer w.rec.end(id)
	n := w.sz.ladderBatches
	if n > len(w.in.pool) {
		n = len(w.in.pool)
	}
	sample := w.in.pool[:n]
	mats, err := decodePool(sample)
	if err != nil {
		return err
	}
	points := float64(n * w.sz.batchPts)

	// Wire: encode, then the zero-copy decode the handler does. The
	// handler reads a body at offset 4 of an 8-aligned buffer so that the
	// float block lands aligned and can be aliased; do the same here.
	t0 := time.Now()
	for _, m := range mats {
		server.EncodeBatch(m)
	}
	t1 := time.Now()
	w.rec.add(id, "server.wire.encode", t0, t1)
	w.rep.set("server.wire.encode_ns_per_pt", float64(t1.Sub(t0).Nanoseconds())/points)
	aligned := make([][]byte, n)
	for i, b := range sample {
		buf := make([]byte, 4+len(b.raw))
		copy(buf[4:], b.raw)
		aligned[i] = buf[4:]
	}
	t0 = time.Now()
	for _, raw := range aligned {
		b, err := server.DecodeBatchAlias(raw, 0)
		if err != nil {
			return err
		}
		b.Release()
	}
	t1 = time.Now()
	w.rec.add(id, "server.wire.decode", t0, t1)
	decodeNsPerPt := float64(t1.Sub(t0).Nanoseconds()) / points
	w.rep.set("server.wire.decode_ns_per_pt", decodeNsPerPt)

	var walAppendUs float64
	if w.plan.workload == "ingest_wal_read" {
		if walAppendUs, err = w.walRungs(id, sample); err != nil {
			return err
		}
	}

	st, err := w.coreRungs(id, mats)
	if err != nil {
		return err
	}
	switch w.plan.workload {
	case "ingest_wal_read": // the checkpoint blob
		var encMs []float64
		var blob []byte
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if blob, err = st.Encode(); err != nil {
				return err
			}
			t1 := time.Now()
			w.rec.add(id, "core.stream_encode", t0, t1)
			encMs = append(encMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
		w.rep.set("core.stream_encode_ms", median(encMs))
		w.rep.set("core.stream_state_bytes", float64(len(blob)))
	case "fleet_routed": // the fold at the heart of a merge epoch
		a, err := st.EncodeShardState()
		if err != nil {
			return err
		}
		var foldMs []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := core.MergeShardStates(a, a); err != nil {
				return err
			}
			t1 := time.Now()
			w.rec.add(id, "core.merge_fold", t0, t1)
			foldMs = append(foldMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
		w.rep.set("core.merge_fold_ms", median(foldMs))
	}

	// Serving rungs, on shard 0 of the live fleet. After every ingest
	// call the rung waits, untimed, until the batch is applied: each call
	// meets an idle daemon.
	node := w.fl.nodes[0]
	settle := func() error { return w.fl.waitApplied(w.acked.Load()) }
	handler := node.srv.Handler()
	call := func(path string, body []byte, producer string, pseq int, want int) error {
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if producer != "" {
			req.Header.Set("X-Producer", producer)
			req.Header.Set("X-Batch-Seq", strconv.Itoa(pseq))
		}
		dw := &discardWriter{h: http.Header{}, status: http.StatusOK}
		handler.ServeHTTP(dw, req)
		if dw.status != want {
			return fmt.Errorf("%s answered %d, want %d", path, dw.status, want)
		}
		return nil
	}
	handlerUs, err := w.timeCalls(id, "server.http.ingest", n, func(i int) error {
		if err := call("/ingest", sample[i].raw, "ladder-handler", i+1, http.StatusAccepted); err != nil {
			return err
		}
		w.acked.Add(int64(sample[i].rows))
		return nil
	}, settle)
	if err != nil {
		return err
	}
	w.rep.set("server.http.handler_us_per_batch", median(handlerUs))
	rawQueries := make([][]byte, len(w.in.queries))
	for i, q := range w.in.queries {
		rawQueries[i] = server.EncodeBatch(q)
	}
	labelHandlerUs, err := w.timeCalls(id, "server.http.label", n, func(i int) error {
		return call("/label", rawQueries[i%len(rawQueries)], "", 0, http.StatusOK)
	}, nil)
	if err != nil {
		return err
	}
	w.rep.set("server.http.label_handler_us", median(labelHandlerUs))

	ingestVia := func(span, url, producer string) ([]float64, error) {
		c := client.New(url)
		c.SetProducer(producer)
		return w.timeCalls(id, span, n, func(i int) error {
			if _, err := c.IngestRawSeq(context.Background(), sample[i].raw, sample[i].rows, c.NextBatchSeq()); err != nil {
				return err
			}
			w.acked.Add(int64(sample[i].rows))
			return nil
		}, settle)
	}
	labelVia := func(span, url string) ([]float64, error) {
		c := client.New(url)
		return w.timeCalls(id, span, n, func(i int) error {
			_, err := c.Label(context.Background(), w.in.queries[i%len(w.in.queries)])
			return err
		}, nil)
	}
	clientUs, err := ingestVia("client.ingest", node.url, "ladder-client")
	if err != nil {
		return err
	}
	clientLabelUs, err := labelVia("client.label", node.url)
	if err != nil {
		return err
	}
	w.rep.set("client.ingest_us_per_batch", median(clientUs))
	w.rep.set("client.label_us", median(clientLabelUs))
	w.rep.set("server.http.edge_us_per_batch", median(clientUs)-median(handlerUs))

	if w.fl.router != nil {
		routedUs, err := ingestVia("router.ingest", w.fl.front, w.producerOwnedBy("ladder-routed", 0))
		if err != nil {
			return err
		}
		routedLabelUs, err := labelVia("router.label", w.fl.front)
		if err != nil {
			return err
		}
		w.rep.set("shardcluster.route_us_per_batch", median(routedUs)-median(clientUs))
		w.rep.set("shardcluster.label_route_us", median(routedLabelUs)-median(clientLabelUs))
	}

	// The ladder must climb: each rung contains the ones below it.
	below := decodeNsPerPt*float64(w.sz.batchPts)/1e3 + walAppendUs
	if h, c := median(handlerUs), median(clientUs); c < h || h < below {
		w.rep.failCheck("ladder_monotone", "client %.1f us, handler %.1f us, decode + WAL append %.1f us per batch", c, h, below)
	}
	return nil
}

// walRungs appends the sample to a WAL of its own beside the daemon's,
// under the daemon's policy (fsync=interval: the ack does not wait for
// the disk), then measures what a durable ack would wait for: one
// WaitDurable per append under fsync=always, in the same directory.
func (w *serving) walRungs(parent int, sample []rawBatch) (appendUs float64, err error) {
	hdr := []byte("ladder-wal-entry-header") // stands in for the producer header the daemon frames
	wal, err := server.OpenWAL(server.WALConfig{Dir: filepath.Join(w.dir, "ladder-wal"), Fsync: server.FsyncInterval})
	if err != nil {
		return 0, err
	}
	var bytesPer int
	us, err := w.timeCalls(parent, "server.wal.append", len(sample), func(i int) error {
		res, err := wal.Append(hdr, sample[i].raw)
		bytesPer = res.Bytes
		return err
	}, nil)
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	w.rep.set("server.wal.append_us_per_batch", median(us))
	w.rep.set("server.wal.bytes_per_batch", float64(bytesPer))

	wal, err = server.OpenWAL(server.WALConfig{Dir: filepath.Join(w.dir, "ladder-wal-always"), Fsync: server.FsyncAlways})
	if err != nil {
		return 0, err
	}
	n := len(sample)
	if n > 32 {
		n = 32 // each wait is a real fsync
	}
	var durableUs []float64
	for i := 0; i < n && err == nil; i++ {
		var res server.AppendResult
		if res, err = wal.Append(hdr, sample[i].raw); err != nil {
			break
		}
		t0 := time.Now()
		_, err = wal.WaitDurable(res.Seq)
		t1 := time.Now()
		w.rec.add(parent, "server.wal.wait_durable", t0, t1)
		durableUs = append(durableUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	w.rep.set("server.wal.wait_durable_us", median(durableUs))
	return median(us), nil
}
