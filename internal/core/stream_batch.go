package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"keybin2/internal/cluster"
	"keybin2/internal/keys"
	"keybin2/internal/linalg"
)

// Batch ingestion: the hot path behind keybin2d's /ingest. A batch is
// split into chunks that never cross a warmup or refit boundary, so the
// stream passes through exactly the same (histogram, sketch, model)
// states as point-at-a-time ingestion — Ingest is literally a one-row
// IngestBatch. Within a chunk the work is column-oriented:
//
//	project chunk → per-(trial,dim) histogram pass → per-trial sketch pass
//
// Each pass runs over a bounded worker pool whose tasks own disjoint
// state (a histogram, a sketch), so there are no locks anywhere on the
// per-point path; the refit at a Period boundary remains the one
// serialized stage. All scratch (projection block, bin indices) lives on
// the Stream and is reused, so steady-state chunks allocate nothing.

// chunkState is the in-flight chunk the pre-bound task functions read.
// Written by applyChunk before dispatch, read-only during it.
type chunkState struct {
	proj *linalg.Matrix
	bins []uint32
	rows int
	cols int
	nrp  int
}

// IngestBatch feeds every row of b into the stream — projection, binning,
// sketch update, and any refits whose Period boundaries the batch
// crosses — and returns the number of rows applied. On error the first
// return still counts the rows whose state landed (a refit failure does
// not un-ingest the points that triggered it).
func (s *Stream) IngestBatch(b *linalg.Matrix) (int, error) {
	return s.IngestBatchLabels(b, nil)
}

// IngestBatchLabels is IngestBatch that additionally labels every row
// under the model current at its chunk (cluster.Noise during warmup or
// before the first refit), writing into labels[:b.Rows]. A nil labels
// skips label assignment entirely — the serving ingest path does not need
// labels and this keeps the assignment walk off its hot loop.
func (s *Stream) IngestBatchLabels(b *linalg.Matrix, labels []int) (int, error) {
	if b.Cols != s.cfg.Dims {
		return 0, fmt.Errorf("core: batch has %d cols, stream expects %d", b.Cols, s.cfg.Dims)
	}
	if labels != nil && len(labels) < b.Rows {
		return 0, fmt.Errorf("core: %d label slots for %d batch rows", len(labels), b.Rows)
	}
	applied := 0
	for applied < b.Rows {
		// Warmup: rows accumulate in the buffer; ranges + first refit
		// fire exactly when the buffer fills, as in the per-point path.
		if s.buffer != nil {
			n := b.Rows - applied
			if room := s.cfg.Warmup - s.bufUsed; n > room {
				n = room
			}
			copy(s.buffer.Data[s.bufUsed*s.cfg.Dims:], b.Data[applied*b.Cols:(applied+n)*b.Cols])
			s.bufUsed += n
			s.seen += n
			if labels != nil {
				for i := applied; i < applied+n; i++ {
					labels[i] = cluster.Noise
				}
			}
			applied += n
			if s.bufUsed == s.cfg.Warmup {
				start := time.Now()
				if err := s.initSetsFromBuffer(); err != nil {
					return applied, err
				}
				if s.rec != nil {
					s.rec.RecordStage("warmup_init", time.Since(start))
				}
				if err := s.Refit(); err != nil {
					return applied, err
				}
			}
			continue
		}
		// Live: a chunk stops at the next Period boundary so the refit
		// sees exactly the state the per-point path would have.
		n := b.Rows - applied
		if rem := s.cfg.Period - s.seen%s.cfg.Period; n > rem {
			n = rem
		}
		// The chunk header lives on the Stream so taking its address does
		// not allocate per chunk.
		s.chunkHdr = linalg.Matrix{Rows: n, Cols: b.Cols, Data: b.Data[applied*b.Cols : (applied+n)*b.Cols]}
		var chunkLabels []int
		if labels != nil {
			chunkLabels = labels[applied : applied+n]
		}
		if err := s.applyChunk(&s.chunkHdr, chunkLabels); err != nil {
			return applied, err
		}
		s.seen += n
		applied += n
		if s.seen%s.cfg.Period == 0 {
			if err := s.Refit(); err != nil {
				return applied, err
			}
		}
	}
	return applied, nil
}

// applyChunk projects, bins, and sketches one refit-boundary-free chunk.
func (s *Stream) applyChunk(data *linalg.Matrix, labels []int) error {
	rows := data.Rows
	proj := data
	if s.batch != nil {
		need := rows * s.batch.Joined.Cols
		if cap(s.projScratch.Data) < need {
			s.projScratch.Data = make([]float64, need)
		}
		s.projScratch = linalg.Matrix{Rows: rows, Cols: s.batch.Joined.Cols, Data: s.projScratch.Data[:need]}
		if _, err := linalg.ParallelMul(&s.projScratch, data, s.batch.Joined, s.cfg.Workers); err != nil {
			return err
		}
		proj = &s.projScratch
	}
	nrp := s.cfg.TargetDims
	cols := proj.Cols
	if cap(s.binScratch) < rows*cols {
		s.binScratch = make([]uint32, rows*cols)
	}
	s.chunk = chunkState{proj: proj, bins: s.binScratch[:rows*cols], rows: rows, cols: cols, nrp: nrp}
	if s.colFn == nil {
		s.colFn, s.trialFn = s.chunkColumn, s.chunkTrial
	}
	s.runTasks(len(s.sets)*nrp, s.colFn)
	s.runTasks(len(s.sets), s.trialFn)

	if labels != nil {
		m := s.model.Load()
		if m == nil {
			for i := 0; i < rows; i++ {
				labels[i] = cluster.Noise
			}
		} else {
			lo := m.Trial * nrp
			for i := 0; i < rows; i++ {
				prow := proj.Row(i)
				labels[i] = m.AssignProjected(prow[lo : lo+nrp])
			}
		}
	}
	return nil
}

// chunkColumn is one column pass task: histogram updates for a single
// (trial, dimension) column, recording each row's bin index for the
// sketch pass. Columns own disjoint histograms and disjoint bin-scratch
// strides — no sharing, no locks.
func (s *Stream) chunkColumn(col int) {
	c := &s.chunk
	h := s.sets[col/c.nrp].Dims[col%c.nrp]
	counts := h.Counts
	for i := 0; i < c.rows; i++ {
		bin := h.Bin(c.proj.Data[i*c.cols+col])
		counts[bin]++
		c.bins[i*c.cols+col] = uint32(bin)
	}
	h.Total += uint64(c.rows)
}

// chunkTrial is one sketch pass task: coarse key accumulation for a
// single trial from the recorded bin indices. The packed fast path is a
// shift-and-or chain plus one map add per point — the same map operation
// the per-point path performs, so masses stay bit-identical.
func (s *Stream) chunkTrial(t int) {
	c := &s.chunk
	sk := s.sketch[t]
	shift := s.sketchShift
	base := t * c.nrp
	if sk.packed != nil {
		for i := 0; i < c.rows; i++ {
			row := c.bins[i*c.cols+base : i*c.cols+base+c.nrp]
			var pk uint64
			for _, b := range row {
				pk = pk<<sketchBitsPerDim | uint64(b>>shift)
			}
			sk.addPacked(pk, 1)
		}
		return
	}
	k := make(keys.Key, c.nrp)
	for i := 0; i < c.rows; i++ {
		row := c.bins[i*c.cols+base : i*c.cols+base+c.nrp]
		for j, b := range row {
			k[j] = b >> shift
		}
		sk.add(k, 1)
	}
}

// runTasks executes fn(0..n-1) across the stream's worker budget
// (cfg.Workers, 0 = GOMAXPROCS). Tasks must touch disjoint state. Serial
// when the budget or the task count is 1 — on a single-CPU host the
// fan-out would only add scheduling overhead — and the serial path is
// allocation-free.
func (s *Stream) runTasks(n int, fn func(int)) {
	w := linalg.Workers(s.cfg.Workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	start := time.Now()
	var busy atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(i)
			}
			busy.Add(int64(time.Since(t0)))
		}()
	}
	wg.Wait()
	s.poolBusyNs.Add(busy.Load())
	s.poolWallNs.Add(int64(time.Since(start)) * int64(w))
}

// PoolUtilization reports the busy fraction of the batch-apply worker
// pool across its parallel dispatches, in [0, 1]. With no parallel
// dispatch yet (single-CPU hosts run every pass serially) it reports 1:
// a lone worker is trivially fully utilized. Safe from any goroutine;
// the serving layer mirrors it into a gauge at scrape time.
func (s *Stream) PoolUtilization() float64 {
	wall := s.poolWallNs.Load()
	if wall <= 0 {
		return 1
	}
	u := float64(s.poolBusyNs.Load()) / float64(wall)
	if u > 1 {
		u = 1
	}
	return u
}
