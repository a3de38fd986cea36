package core

import (
	"fmt"
	"math"

	"keybin2/internal/histogram"
)

// Stream checkpoint wire format (little endian):
//
//	magic "KB2S" | version u32
//	seen u64 | nextID u32
//	[v2 only: metaLen u32 | meta bytes]
//	hasModel u8 [model frame]
//	ntrials u32, per trial:
//	  set frame (histogram.Set.Encode, length-prefixed)
//	  nkeys u32, per key: width u32, key u32×width, mass f64
//
// In-situ analyses run for days; a checkpoint restores the stream's
// histograms, key sketches, label-continuity state, and current model so
// ingestion resumes exactly where it stopped. The warmup buffer is NOT
// checkpointed: checkpoint after warmup (Encode returns an error before
// that), which is also when there is state worth saving.
//
// Version 2 adds an opaque caller-owned metadata section between the
// label-continuity state and the model. The serving layer uses it to
// record the write-ahead-log position a checkpoint covers, so recovery
// replays exactly the WAL tail the checkpoint does not already contain;
// the stream itself never interprets the bytes. Encode emits v1 when no
// metadata is attached, so existing checkpoints and readers are
// unaffected.
//
// The restored stream must be created with the same StreamConfig (same
// seed, dims, trials, projection kind); DecodeStream re-derives the
// projections from the config rather than storing the matrices.

const streamMagic = "KB2S"
const streamVersion = 2

// Encode serializes the stream state. It fails before warmup completes.
func (s *Stream) Encode() ([]byte, error) { return s.EncodeWithMeta(nil) }

// EncodeWithMeta serializes the stream state with an opaque metadata blob
// the matching DecodeStreamMeta returns verbatim. nil/empty meta produces
// the v1 format.
func (s *Stream) EncodeWithMeta(meta []byte) ([]byte, error) {
	if s.sets == nil {
		return nil, fmt.Errorf("core: checkpoint before warmup completed")
	}
	if s.synced != nil {
		return nil, fmt.Errorf("core: checkpointing a distributed-synced stream is not supported")
	}
	w := &wireWriter{}
	w.buf = append(w.buf, streamMagic...)
	if len(meta) == 0 {
		w.u32(1)
	} else {
		w.u32(streamVersion)
	}
	w.u64(uint64(s.seen))
	w.u32(uint32(s.nextID))
	if len(meta) > 0 {
		w.u32(uint32(len(meta)))
		w.buf = append(w.buf, meta...)
	}
	if m := s.model.Load(); m != nil {
		w.u8(1)
		m := m.Encode()
		w.u32(uint32(len(m)))
		w.buf = append(w.buf, m...)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(s.sets)))
	for t, set := range s.sets {
		enc := set.Encode()
		w.u32(uint32(len(enc)))
		w.buf = append(w.buf, enc...)
		sk, comps := s.sketch[t], make([]uint16, s.cfg.TargetDims)
		w.u32(uint32(sk.len()))
		for c := range sk.len() {
			cellComponents(comps, sk.key(c), s.cellLayout)
			w.u32(uint32(len(comps)))
			for _, b := range comps {
				w.u32(uint32(b))
			}
			w.f64(sk.mass(c))
		}
	}
	return w.buf, nil
}

// DecodeStream restores a checkpointed stream. cfg must match the one the
// stream was created with; the projections are re-derived from cfg.Seed.
func DecodeStream(cfg StreamConfig, b []byte) (*Stream, error) {
	s, _, err := DecodeStreamMeta(cfg, b)
	return s, err
}

// DecodeStreamMeta restores a checkpointed stream and returns the opaque
// metadata attached at encode time (nil for v1 checkpoints).
func DecodeStreamMeta(cfg StreamConfig, b []byte) (*Stream, []byte, error) {
	if len(b) < 8 || string(b[:4]) != streamMagic {
		return nil, nil, fmt.Errorf("core: not a stream checkpoint")
	}
	// Rebuild the shell (projections, depth, defaults) from the config.
	// RawRanges presence is irrelevant here: the checkpoint carries the
	// actual histogram ranges.
	cfgNoWarmup := cfg
	if cfgNoWarmup.RawRanges == nil {
		// avoid allocating a warmup buffer that will never be used
		cfgNoWarmup.RawRanges = make([][2]float64, cfg.Dims)
	}
	s, err := NewStream(cfgNoWarmup)
	if err != nil {
		return nil, nil, err
	}

	r := &wireReader{buf: b, off: 4}
	v := r.u32()
	if v != 1 && v != streamVersion {
		return nil, nil, fmt.Errorf("core: stream checkpoint version %d unsupported", v)
	}
	s.seen = int(r.u64())
	s.nextID = int(r.u32())
	var meta []byte
	if v >= 2 {
		mlen := int(r.u32())
		if mlen < 0 || !r.need(mlen) {
			return nil, nil, fmt.Errorf("core: truncated checkpoint metadata")
		}
		meta = append([]byte(nil), r.buf[r.off:r.off+mlen]...)
		r.off += mlen
	}
	if r.u8() == 1 {
		mlen := int(r.u32())
		if !r.need(mlen) {
			return nil, nil, r.err
		}
		model, err := DecodeModel(r.buf[r.off : r.off+mlen])
		if err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint model: %w", err)
		}
		r.off += mlen
		s.model.Store(model)
	}
	ntrials := int(r.u32())
	if ntrials != s.cfg.Trials {
		return nil, nil, fmt.Errorf("core: checkpoint has %d trials, config %d", ntrials, s.cfg.Trials)
	}
	s.sets = make([]*histogram.Set, ntrials)
	s.sketch = make([]*flatTable, ntrials)
	cells := s.cellLayout
	key := make([]uint64, cells.words)
	for t := 0; t < ntrials; t++ {
		slen := int(r.u32())
		if !r.need(slen) {
			return nil, nil, r.err
		}
		set, err := histogram.DecodeSet(r.buf[r.off : r.off+slen])
		if err != nil {
			return nil, nil, err
		}
		if err := s.fitsTrial(set); err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint trial %d: %w", t, err)
		}
		r.off += slen
		s.sets[t] = set
		// Each key record is width u32 | key u32×width | mass f64. The
		// count is checked against the bytes left, and nothing is sized
		// from it: the sketch grows as records actually arrive.
		nkeys := int(r.u32())
		if left := len(b) - r.off; nkeys < 0 || nkeys > left/(12+4*len(set.Dims)) {
			return nil, nil, fmt.Errorf("core: %d sketch keys in %d bytes", nkeys, left)
		}
		sk := &flatTable{words: cells.words}
		for i := 0; i < nkeys; i++ {
			width := int(r.u32())
			if width != len(set.Dims) {
				return nil, nil, fmt.Errorf("core: checkpoint key width %d for %d dims", width, len(set.Dims))
			}
			clear(key)
			for j := range width {
				b := uint64(r.u32())
				if err := checkSketchComponent(j, b, s.sketchCells()); err != nil {
					return nil, nil, fmt.Errorf("core: checkpoint trial %d: %w", t, err)
				}
				cells.put(key, j, b)
			}
			mass := r.f64()
			if r.err != nil {
				return nil, nil, r.err
			}
			if math.IsNaN(mass) || mass < 0 {
				return nil, nil, fmt.Errorf("core: checkpoint key mass %v", mass)
			}
			sk.add(key, mass)
		}
		s.sketch[t] = sk
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.off != len(b) {
		return nil, nil, fmt.Errorf("core: %d trailing bytes in stream checkpoint", len(b)-r.off)
	}
	return s, meta, nil
}
