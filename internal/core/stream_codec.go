package core

import (
	"fmt"

	"keybin2/internal/histogram"
	"keybin2/internal/wire"
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
// A checkpoint restores only under the StreamConfig it was written with
// (same seed, dims, trials, depth, projection kind). The projections are
// not stored as such: DecodeStreamMeta derives them from the config, and
// the model's copy of its trial's columns must equal them to the bit.

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
	w := &wire.Writer{}
	w.Str(streamMagic)
	if len(meta) == 0 {
		w.U32(1)
	} else {
		w.U32(streamVersion)
	}
	w.U64(uint64(s.seen))
	w.U32(uint32(s.nextID))
	if len(meta) > 0 {
		w.Frame(meta)
	}
	if m := s.model.Load(); m != nil {
		w.U8(1)
		w.Frame(m.Encode())
	} else {
		w.U8(0)
	}
	w.U32(uint32(len(s.sets)))
	for t, set := range s.sets {
		w.Frame(set.Encode())
		sk, comps := s.sketch[t], make([]uint16, s.cfg.TargetDims)
		w.U32(uint32(sk.len()))
		for c := range sk.len() {
			cellComponents(comps, sk.key(c), s.cellLayout)
			w.U32(uint32(len(comps)))
			for _, b := range comps {
				w.U32(uint32(b))
			}
			w.F64(sk.mass(c))
		}
	}
	return w.Buf, nil
}

// DecodeStream restores a checkpointed stream. cfg must match the one the
// stream was created with; the projections are re-derived from cfg.Seed.
func DecodeStream(cfg StreamConfig, b []byte) (*Stream, error) {
	s, _, err := DecodeStreamMeta(cfg, b)
	return s, err
}

// DecodeStreamMeta restores a checkpointed stream and returns the opaque
// metadata attached at encode time (nil for v1 checkpoints). The whole
// payload is parsed into values and checked against cfg's shape as it is
// read; only a checkpoint that passes builds its stream, once, so a
// refused one costs its parse and never a stream.
func DecodeStreamMeta(cfg StreamConfig, b []byte) (*Stream, []byte, error) {
	sh, err := shapeOf(cfg)
	if err != nil {
		return nil, nil, err
	}
	r := wire.NewReader("core: stream checkpoint", b)
	if string(r.Bytes(4)) != streamMagic {
		return nil, nil, fmt.Errorf("core: not a stream checkpoint")
	}
	v := r.U32()
	if r.Err() == nil && v != 1 && v != streamVersion {
		return nil, nil, fmt.Errorf("core: stream checkpoint version %d unsupported", v)
	}
	seen, nextID := int(r.U64()), int(r.U32())
	var meta []byte
	if v >= 2 {
		meta = append([]byte(nil), r.Frame()...)
	}
	var model *Model
	if r.U8() == 1 {
		frame := r.Frame()
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		if model, err = DecodeModel(frame); err == nil {
			err = sh.fitsModel(model, nextID)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint model: %w", err)
		}
	}
	if n := int(r.U32()); r.Err() == nil && n != sh.cfg.Trials {
		return nil, nil, fmt.Errorf("core: checkpoint has %d trials, config %d", n, sh.cfg.Trials)
	}
	sets, sketch := make([]*histogram.Set, sh.cfg.Trials), make([]*flatTable, sh.cfg.Trials)
	for t := range sets {
		frame := r.Frame()
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		set, err := histogram.DecodeSet(frame)
		if err != nil {
			return nil, nil, err
		}
		// Each key record is width u32 | key u32×width | mass f64, the key
		// in the fold's 'S' form. Nothing is sized from the count: the
		// sketch grows as records arrive.
		nkeys := r.Count(r.U32(), 12+4*len(set.Dims))
		cells := sketchLayout(len(set.Dims))
		sk, key := &flatTable{words: cells.words}, make([]uint64, cells.words)
		for range nkeys {
			if err := cells.fromWire(key, r.Bytes(4*int(r.U32()))); err != nil {
				return nil, nil, fmt.Errorf("core: checkpoint trial %d: %w", t, err)
			}
			// A mass may be fractional (decay) but, as a fold's, below 2^53.
			if mass := r.F64(); !(mass >= 0) || sk.mass(sk.add(key, mass)) >= exactMassLimit {
				return nil, nil, fmt.Errorf("core: checkpoint key mass %v: a key's mass must lie in [0, 2^53)", mass)
			}
		}
		if err := sh.fitsTrial(set, sk); err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint trial %d: %w", t, err)
		}
		sets[t], sketch[t] = set, sk
	}
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	// Every piece fits the shape: build the stream, once. RawRanges play
	// no part: the checkpoint carries the actual histogram ranges.
	s, err := sh.build()
	if err != nil {
		return nil, nil, err
	}
	if model != nil {
		if err := s.checkProjection(model); err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint model: %w", err)
		}
		s.model.Store(model)
	}
	s.seen, s.nextID, s.sets, s.sketch = seen, nextID, sets, sketch
	return s, meta, nil
}

// fitsModel checks a checkpoint's model against the shape and the nextID
// beside it: one of the stream's trials, histograms that pass fitsTrial, a
// Dims × TargetDims projection exactly when the config projects, and every
// installed label below nextID, the next fresh id stabilizeLabels hands
// out (a label at or above it would be handed out twice).
func (sh *streamShape) fitsModel(m *Model, nextID int) error {
	if m.Trial >= sh.cfg.Trials {
		return fmt.Errorf("trial %d of a stream of %d trials", m.Trial, sh.cfg.Trials)
	}
	if err := sh.fitsTrial(m.Set, nil); err != nil {
		return err
	}
	switch p := m.Projection; {
	case p == nil && !sh.cfg.NoProjection:
		return fmt.Errorf("no projection for a stream that projects")
	case p != nil && sh.cfg.NoProjection:
		return fmt.Errorf("a projection for a NoProjection stream")
	case p != nil && (p.Rows != sh.cfg.Dims || p.Cols != sh.cfg.TargetDims):
		return fmt.Errorf("%d×%d projection for %d dims projected to %d", p.Rows, p.Cols, sh.cfg.Dims, sh.cfg.TargetDims)
	}
	for i, label := range m.installedLabels() {
		if label >= nextID {
			return fmt.Errorf("cluster %d has label %d, not below nextID %d", i, label, nextID)
		}
	}
	return nil
}

// checkProjection checks that m's projection is its trial's columns of the
// stream's own to the last bit, as Model.finish copies them: a checkpoint
// of another seed or projection kind is refused. fitsModel checked the
// shape.
func (s *Stream) checkProjection(m *Model) error {
	if s.batch == nil {
		return nil
	}
	nrp := s.cfg.TargetDims
	for i := range s.cfg.Dims {
		for j := range nrp {
			if m.Projection.At(i, j) != s.batch.Joined.At(i, m.Trial*nrp+j) {
				return fmt.Errorf("projection of trial %d is not the config's (seed %d): it differs at row %d, column %d", m.Trial, s.cfg.Seed, i, j)
			}
		}
	}
	return nil
}
