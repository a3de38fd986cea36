package core

import (
	"cmp"
	"fmt"
	"slices"

	"keybin2/internal/histogram"
	"keybin2/internal/mpi"
)

// The consolidation fold (§3): the one thing ranks and shards exchange is,
// per projection trial, the per-dimension binning histograms and the
// key-tuple masses that define the clusters, and consolidating it is an
// integer sum. foldState is that value; FitDistributed's two rounds,
// SyncDistributed and the shard merge are adapters that fill one in, move
// its bytes over their transport, and read the sum back.
//
// Invariants the adapters (and the tests) rely on:
//   - merge is commutative and associative: integer additions per bin and
//     per key, so any order or grouping of the same states gives one sum;
//   - the encoding is canonical: sets encode positionally, keys in strictly
//     ascending order with no zero mass, and the decoder accepts nothing
//     else — equal states have equal bytes, and encode∘decode is identity;
//   - every count read off the wire is bounded by the bytes that remain
//     before anything is allocated for it.
//
// Wire format (little endian), version 2:
//
//	magic "KB2H" | version u32 | trials u32 | seen u64
//	per trial:
//	  setLen u32 | histogram.Set.Encode bytes   (setLen 0: no histograms
//	                                             travel in this round)
//	  tag u8 | nentries u32 | entries           (the key masses)
//	    'U': key u64 | mass u64                 packed keys, 16 B per cell
//	    'S': keylen u32 | key bytes | mass u64  keys too wide to pack
//
// What a key means is the adapter's business — a segment tuple under the
// trial's tupleCodec in FitDistributed, a coarse sketch cell in the stream
// paths — and every party to one exchange derives the same keying from the
// same configuration, so paired trials always carry the same tag.

const (
	foldMagic   = "KB2H"
	foldVersion = 2

	tupleTagPacked = 'U'
	tupleTagString = 'S'
)

type foldTrial struct {
	set    *histogram.Set // nil: this round carries no histograms
	tuples tupleCounts
}

type foldState struct {
	seen   uint64 // points behind this contribution
	trials []foldTrial
}

func (f *foldState) encode() []byte {
	w := &wireWriter{}
	w.buf = append(w.buf, foldMagic...)
	w.u32(foldVersion)
	w.u32(uint32(len(f.trials)))
	w.u64(f.seen)
	for _, tr := range f.trials {
		if tr.set == nil {
			w.u32(0)
		} else {
			enc := tr.set.Encode()
			w.u32(uint32(len(enc)))
			w.buf = append(w.buf, enc...)
		}
		if u := tr.tuples.u; u != nil {
			cells := slices.DeleteFunc(u.sorted(), func(c flatCell) bool { return c.mass == 0 })
			w.u8(tupleTagPacked)
			w.u32(uint32(len(cells)))
			for _, c := range cells {
				w.u64(c.key)
				w.u64(uint64(c.mass))
			}
		} else {
			writeEntries(w, tr.tuples.s)
		}
	}
	return w.buf
}

// writeEntries writes the string keys of m that hold mass, ascending — the
// canonical entry order, a zero-mass key being the same as an absent one.
func writeEntries(w *wireWriter, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k, n := range m {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	w.u8(tupleTagString)
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.u64(m[k])
	}
}

// str writes a length-prefixed string.
func (w *wireWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// decodeFold is the only place a consolidation payload is parsed. Its input
// comes from MPI peers and from /hist bodies, so it trusts no length.
func decodeFold(b []byte) (*foldState, error) {
	if len(b) < 8 || string(b[:4]) != foldMagic {
		return nil, fmt.Errorf("core: not a fold state (missing %q header)", foldMagic)
	}
	r := &wireReader{buf: b, off: 4}
	if v := r.u32(); v != foldVersion {
		return nil, fmt.Errorf("core: fold state version %d unsupported", v)
	}
	trials := int(r.u32())
	const minTrialBytes = 4 + 1 + 4 // setLen, tag, nentries
	if trials <= 0 || trials > 1<<16 || trials > len(b)/minTrialBytes {
		return nil, fmt.Errorf("core: absurd fold state trial count %d in %d bytes", trials, len(b))
	}
	f := &foldState{seen: r.u64(), trials: make([]foldTrial, trials)}
	for t := range f.trials {
		if slen := int(r.u32()); slen > 0 {
			if !r.need(slen) {
				return nil, fmt.Errorf("core: truncated fold state (trial %d set)", t)
			}
			set, err := histogram.DecodeSet(r.buf[r.off : r.off+slen])
			if err != nil {
				return nil, fmt.Errorf("core: fold state trial %d: %w", t, err)
			}
			if len(set.Dims) == 0 {
				return nil, fmt.Errorf("core: fold state trial %d: histogram set without dimensions", t)
			}
			// A range that is empty, inverted or NaN merges with nothing,
			// not even itself; histogram.New never produces one.
			for j, h := range set.Dims {
				if !(h.Max > h.Min) {
					return nil, fmt.Errorf("core: fold state trial %d dim %d: range [%g, %g]", t, j, h.Min, h.Max)
				}
			}
			r.off += slen
			f.trials[t].set = set
		}
		var err error
		if f.trials[t].tuples, err = r.tupleCounts(); err != nil {
			return nil, fmt.Errorf("core: fold state trial %d: %w", t, err)
		}
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes in fold state", len(b)-r.off)
	}
	return f, nil
}

// tupleCounts reads one trial's key masses.
func (r *wireReader) tupleCounts() (tc tupleCounts, err error) {
	switch tag, n := r.u8(), int(r.u32()); {
	case r.err != nil:
		err = r.err
	case tag == tupleTagPacked:
		tc.u = &flatTable{}
		err = readEntries(r, n, 16, r.u64, func(k, mass uint64) { tc.u.add(k, float64(mass)) })
	case tag == tupleTagString:
		tc.s = map[string]uint64{}
		err = readEntries(r, n, 12, r.str, func(k string, mass uint64) { tc.s[k] = mass })
	default:
		err = fmt.Errorf("core: unknown tuple-count tag %q", tag)
	}
	return tc, err
}

// str reads a length-prefixed string.
func (r *wireReader) str() string {
	n := int(r.u32())
	if n < 0 || !r.need(n) {
		return ""
	}
	r.off += n
	return string(r.buf[r.off-n : r.off])
}

// readEntries reads n key | mass entries of at least minBytes each into
// put. The count is checked against the bytes left before any entry is
// read, and only the canonical form is accepted: keys strictly ascending,
// every mass a whole count in [1, 2^53) — the range a count table holds
// exactly.
func readEntries[K cmp.Ordered](r *wireReader, n, minBytes int, key func() K, put func(K, uint64)) error {
	if left := len(r.buf) - r.off; n > left/minBytes {
		return fmt.Errorf("core: %d tuple entries in %d bytes", n, left)
	}
	var prev K
	for i := 0; i < n; i++ {
		k, mass := key(), r.u64()
		if r.err != nil {
			return r.err
		}
		if i > 0 && k <= prev || mass == 0 || mass >= exactMassLimit {
			return fmt.Errorf("core: tuple entry %d not canonical (key order, or mass %d)", i, mass)
		}
		put(k, mass)
		prev = k
	}
	return nil
}

// sameShape reports whether o can be summed with f: the same number of
// trials, histograms present on both sides or on neither.
func (f *foldState) sameShape(o *foldState) error {
	if len(o.trials) != len(f.trials) {
		return fmt.Errorf("core: fold of %d trials with %d", len(f.trials), len(o.trials))
	}
	for t := range f.trials {
		if (f.trials[t].set == nil) != (o.trials[t].set == nil) {
			return fmt.Errorf("core: fold trial %d carries histograms on one side only", t)
		}
	}
	return nil
}

// merge adds in into f. Histogram congruence (dimensions, depth, ranges) is
// validated by Set.Merge, and a key mass summed to 2^53 or more fails with
// errMassPastExact; a failed merge leaves f partly summed, so callers drop
// it.
func (f *foldState) merge(in *foldState) error {
	if err := f.sameShape(in); err != nil {
		return err
	}
	for t := range f.trials {
		a, b := &f.trials[t], &in.trials[t]
		if a.set != nil {
			if err := a.set.Merge(b.set); err != nil {
				return fmt.Errorf("core: fold trial %d: %w", t, err)
			}
		}
		var err error
		if a.tuples, err = mergeTupleCounts(a.tuples, b.tuples); err != nil {
			return fmt.Errorf("core: fold trial %d: %w", t, err)
		}
	}
	f.seen += in.seen
	return nil
}

// minus returns f − prev, the delta protocol's subtraction. prev is a state
// f grew from, so no bin and no key goes negative; keys that did not grow
// are left out.
func (f *foldState) minus(prev *foldState) *foldState {
	out := &foldState{seen: f.seen - prev.seen, trials: make([]foldTrial, len(f.trials))}
	for t, tr := range f.trials {
		p := prev.trials[t]
		set := tr.set.Clone()
		for j, h := range set.Dims {
			for b, c := range p.set.Dims[j].Counts {
				h.Counts[b] -= c
			}
			h.Total -= p.set.Dims[j].Total
		}
		out.trials[t].set = set
		out.trials[t].tuples = tr.tuples.minus(p.tuples)
	}
	return out
}

// combineFold is the fold as an mpi.Combine: every collective that
// consolidates exchanged state reduces with it.
func combineFold(acc, in []byte) ([]byte, error) {
	a, err := decodeFold(acc)
	if err != nil {
		return nil, err
	}
	b, err := decodeFold(in)
	if err != nil {
		return nil, err
	}
	if err := a.merge(b); err != nil {
		return nil, err
	}
	return a.encode(), nil
}

// exchange sums local across the ranks of comm over the configured
// collective and returns the global state, which every rank receives
// identically.
func exchange(comm *mpi.Comm, cfg Config, local *foldState) (*foldState, error) {
	raw, err := consolidate(comm, cfg, local.encode(), combineFold)
	if err != nil {
		return nil, err
	}
	global, err := decodeFold(raw)
	if err != nil {
		return nil, err
	}
	return global, local.sameShape(global)
}

// fold reads the stream's cumulative contribution: its live histograms and
// its sketches rounded to integer masses (exact without decay, where every
// ingested point adds mass 1). The sets alias the live ones, so the value
// is encoded or subtracted from before the next Ingest.
func (s *Stream) fold() *foldState {
	f := &foldState{seen: uint64(s.seen), trials: make([]foldTrial, len(s.sets))}
	for t, set := range s.sets {
		f.trials[t] = foldTrial{set: set, tuples: s.sketch[t].counts()}
	}
	return f
}

// fitsTrial checks that set has the shape of one of the stream's trials:
// TargetDims histograms, every one of the stream's depth. State from
// elsewhere — a merged fold, a checkpoint — must pass it before it
// replaces s.sets: the sketch keys, the projected columns a trial reads and
// the bins the batch apply counts into are all sized from the config.
func (s *Stream) fitsTrial(set *histogram.Set) error {
	if set == nil {
		return fmt.Errorf("no histograms for a stream of %d projected dims", s.cfg.TargetDims)
	}
	if len(set.Dims) != s.cfg.TargetDims {
		return fmt.Errorf("%d histograms for a stream of %d projected dims", len(set.Dims), s.cfg.TargetDims)
	}
	for _, h := range set.Dims {
		if h.Depth != s.depth {
			return fmt.Errorf("histograms of depth %d for a stream of depth %d", h.Depth, s.depth)
		}
	}
	return nil
}

// adopt makes st the stream's state — histograms, sketches rebuilt from the
// key masses, point count — and refits on it. Everything is checked against
// the stream's own shape before anything is replaced, so a state that does
// not fit leaves the stream as it was. The sets are copied: st stays the
// caller's.
func (s *Stream) adopt(st *foldState) error {
	if len(st.trials) != len(s.sets) {
		return fmt.Errorf("core: merged state has %d trials, config %d", len(st.trials), len(s.sets))
	}
	sketches := make([]*trialSketch, len(s.sets))
	for t, tr := range st.trials {
		if err := s.fitsTrial(tr.set); err != nil {
			return fmt.Errorf("core: merged state trial %d: %w", t, err)
		}
		width := len(tr.set.Dims)
		var err error
		if sketches[t], err = sketchFromCounts(width, s.sketchCells(), tr.tuples); err != nil {
			return fmt.Errorf("core: merged state trial %d: %w", t, err)
		}
	}
	for t, tr := range st.trials {
		s.sets[t] = tr.set.Clone()
	}
	s.sketch = sketches
	s.seen = int(st.seen)
	return s.Refit()
}
