package core

import (
	"fmt"
	"slices"
	"time"

	"keybin2/internal/cluster"
	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
)

// Batch ingestion: the hot path behind keybin2d's /ingest. A batch is
// split into chunks that never cross a warmup or refit boundary, so the
// stream passes through exactly the same (histogram, sketch, model)
// states as point-at-a-time ingestion — Ingest is literally a one-row
// IngestBatch. Each chunk is one serial pass over blockRows-row blocks:
//
//	project a block → bin it (linalg.BinRows) → per trial, per row: bump
//	the counts of its N_rp stored bins, shift-or the coarse sketch key →
//	add the key to the sketch
//
// The block is binned while it sits in L2; the scratch is a blockRows ×
// cols projection buffer and a bin buffer of the same shape on the Stream,
// so steady-state chunks allocate nothing. The pass is serial on
// purpose, whatever Config.Workers says: splitting it across workers by
// column makes them write neighbouring bin indices of one cache line
// (false sharing), and in the daemon the second core belongs to the HTTP
// handlers. The refit at a Period boundary is the writer's other stage.

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
			n := min(b.Rows-applied, s.cfg.Warmup-s.bufUsed)
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
		n := min(b.Rows-applied, s.cfg.Period-s.seen%s.cfg.Period)
		var chunkLabels []int
		if labels != nil {
			chunkLabels = labels[applied : applied+n]
		}
		s.applyChunk(b, applied, n, chunkLabels)
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

// applyChunk projects, bins and sketches rows [lo, lo+n) of b, a chunk
// that crosses no refit boundary, one blockRows-row block at a time, and
// labels them into labels[:n] when labels is not nil. A block is binned
// whole by linalg.BinRows into the stream's bin scratch; then the trials
// run one after another, each over the rows in order, bumping the counts
// and adding each row's coarse sketch key (bin >> sketchShift per
// dimension, under Stream.cellLayout) from the stored bins, so every sketch
// cell receives its unit masses in the order point-at-a-time ingestion
// gives them and the float masses match to the last bit.
func (s *Stream) applyChunk(b *linalg.Matrix, lo, n int, labels []int) {
	nrp := s.cfg.TargetDims
	m := s.model.Load() // no refit runs inside a chunk
	cols := nrp * len(s.sets)
	if s.binLo == nil {
		s.binLo, s.binIW = make([]float64, cols), make([]float64, cols)
		s.bins = make([]uint16, blockRows*cols)
	}
	// The ranges are read afresh every chunk: adopt, decode and the warm-up
	// replace s.sets wholesale.
	for t, set := range s.sets {
		for j, h := range set.Dims {
			s.binLo[t*nrp+j], s.binIW[t*nrp+j] = h.Min, h.InvWidth()
		}
	}
	for off := 0; off < n; off += blockRows {
		rows := min(blockRows, n-off)
		first := (lo + off) * b.Cols
		raw := linalg.Matrix{Rows: rows, Cols: b.Cols, Data: b.Data[first : first+rows*b.Cols]}
		proj := raw
		if s.batch != nil {
			if s.projBlock == nil {
				s.projBlock = make([]float64, blockRows*cols)
			}
			proj = linalg.Matrix{Rows: rows, Cols: cols, Data: s.projBlock[:rows*cols]}
			// MulPacked only fails on a shape mismatch: b.Cols is the
			// stream's Dims (checked by IngestBatchLabels), the rows of
			// Joined.
			_ = linalg.MulPacked(&proj, &raw, s.batch.Packed, nil, nil)
		}
		bins := s.bins[:rows*cols]
		linalg.BinRows(bins, proj.Data, cols, s.binLo, s.binIW, 1<<s.depth)
		for t, set := range s.sets {
			s.sketchBlock(set, s.sketch[t], bins, t*nrp, cols)
			for _, h := range set.Dims {
				h.Total += uint64(rows)
			}
		}
		switch {
		case labels == nil:
		case m == nil:
			for i := range rows {
				labels[off+i] = cluster.Noise
			}
		default:
			// The model's Set is a clone of its trial's (Refit), so the
			// trial's stored bins are the model's (DecodeStreamMeta checks).
			s.labelKeys = slices.Grow(s.labelKeys[:0], blockRows*m.lab.words())[:blockRows*m.lab.words()]
			m.labelRows(labels[off:off+rows], s.labelKeys, bins, m.Trial*nrp, cols)
		}
	}
}

// sketchBlock bumps set's counts at every row's stored bins in a block and
// adds the row's coarse cell key to sk: the trial's columns start first
// bins into the block, rows are stride apart. The key is the components
// (bin >> sketchShift, below 2^sketchBitsPerDim) shift-ORed together: in
// one register for a one-word key (N_rp ≤ 12), in a register pair for two
// words (N_rp ≤ 25), and field by field when wider.
func (s *Stream) sketchBlock(set *histogram.Set, sk *flatTable, bins []uint16, first, stride int) {
	key, shift := s.cellKey, s.sketchShift&15
	for at := first; at < len(bins); at += stride {
		row := bins[at : at+len(set.Dims)]
		var hi, lo uint64
		if len(key) == 1 {
			for j, h := range set.Dims {
				bin := row[j]
				h.Counts[bin]++
				lo = lo<<sketchBitsPerDim | uint64(bin>>shift)
			}
			sk.add1(lo, 1)
			continue
		}
		for j, h := range set.Dims {
			bin := row[j]
			h.Counts[bin]++
			hi = hi<<sketchBitsPerDim | lo>>(64-sketchBitsPerDim)
			lo = lo<<sketchBitsPerDim | uint64(bin>>shift)
		}
		if len(key) == 2 {
			key[0], key[1] = hi, lo
		} else {
			clear(key)
			for j, bin := range row {
				s.cellLayout.put(key, j, uint64(bin>>shift))
			}
		}
		sk.add(key, 1)
	}
}
