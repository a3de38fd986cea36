package core

import (
	"bytes"
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
//	    'U': key u64 | mass u64                 one-word keys, 16 B per cell
//	    'S': keylen u32 | key bytes | mass u64  wider keys, one field per
//	                                            dimension: a u16 segment or
//	                                            a u32 sketch component
//
// What a key means is the adapter's business — a segment tuple under the
// trial's tupleLayout in FitDistributed, a coarse sketch cell in the stream
// paths — and every party to one exchange derives the same layout from the
// same configuration, so paired trials always carry the same tag. In
// memory every key is its layout's words; only encode and decodeFold turn
// the words of a wider key into 'S' bytes and back, so 'S' entries keep
// the ascending byte order the section has always had. A trial with no
// key table encodes as an empty 'S' section.

const (
	foldMagic   = "KB2H"
	foldVersion = 2

	tupleTagPacked = 'U' // one-word keys
	tupleTagString = 'S' // wider keys, as bytes
)

type foldTrial struct {
	set    *histogram.Set // nil: this round carries no histograms
	tuples *flatTable     // nil: this round carries no key masses
	keys   keyLayout      // how the keys lay out, for the 'S' section
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
		tab := tr.tuples
		if tab != nil && tab.words == 1 {
			cells := slices.DeleteFunc(tab.sorted(), func(c int) bool { return tab.mass(c) == 0 })
			w.u8(tupleTagPacked)
			w.u32(uint32(len(cells)))
			for _, c := range cells {
				w.u64(tab.key(c)[0])
				w.u64(uint64(tab.mass(c)))
			}
			continue
		}
		// The 'S' entries that hold mass, ascending by their bytes — the
		// canonical entry order, a zero-mass key being the same as an
		// absent one.
		type entry struct {
			key  []byte
			mass uint64
		}
		var entries []entry
		if tab != nil {
			for c := range tab.len() {
				if m := tab.mass(c); m > 0 {
					entries = append(entries, entry{tr.keys.appendWire(nil, tab.key(c)), uint64(m)})
				}
			}
		}
		slices.SortFunc(entries, func(a, b entry) int { return bytes.Compare(a.key, b.key) })
		w.u8(tupleTagString)
		w.u32(uint32(len(entries)))
		for _, e := range entries {
			w.u32(uint32(len(e.key)))
			w.buf = append(w.buf, e.key...)
			w.u64(e.mass)
		}
	}
	return w.buf
}

// decodeFold is the only place a consolidation payload is parsed. Its input
// comes from MPI peers and from /hist bodies, so it trusts no length. A
// trial's keys are the coarse sketch cells of its width when its
// histograms travel, and otherwise follow tuples[t] (no keys at all past
// the end of tuples): the layout a wide key's 'S' bytes become words under.
func decodeFold(b []byte, tuples []keyLayout) (*foldState, error) {
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
		tr := &f.trials[t]
		if t < len(tuples) {
			tr.keys = tuples[t]
		}
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
			r.off += slen
			tr.set, tr.keys = set, sketchLayout(len(set.Dims))
		}
		var err error
		if tr.tuples, err = r.keyMasses(tr.keys); err != nil {
			return nil, fmt.Errorf("core: fold state trial %d: %w", t, err)
		}
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes in fold state", len(b)-r.off)
	}
	return f, nil
}

// keyMasses reads one trial's key masses under its layout: 'U' for
// one-word keys (or keys of no known layout, which stay words), 'S' for
// wider ones, and an empty 'S' section for no table at all — whatever
// would encode back to the same bytes.
func (r *wireReader) keyMasses(layout keyLayout) (*flatTable, error) {
	tag, n := r.u8(), int(r.u32())
	switch {
	case r.err != nil:
		return nil, r.err
	case tag == tupleTagString && n == 0:
		return nil, nil
	case tag != tupleTagPacked && tag != tupleTagString:
		return nil, fmt.Errorf("core: unknown tuple-count tag %q", tag)
	case (tag == tupleTagPacked) != (layout.words <= 1):
		return nil, fmt.Errorf("core: tuple-count tag %q for keys of %d words", tag, layout.words)
	case tag == tupleTagPacked:
		tab, key := &flatTable{words: 1}, make([]uint64, 1)
		return tab, readEntries(r, n, 16, r.u64, func(k, mass uint64) error {
			key[0] = k
			tab.add(key, float64(mass))
			return nil
		})
	}
	tab, key := &flatTable{words: layout.words}, make([]uint64, layout.words)
	return tab, readEntries(r, n, 12, r.str, func(k string, mass uint64) error {
		if err := layout.fromWire(key, k); err != nil {
			return err
		}
		tab.add(key, float64(mass))
		return nil
	})
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
func readEntries[K cmp.Ordered](r *wireReader, n, minBytes int, key func() K, put func(K, uint64) error) error {
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
		if err := put(k, mass); err != nil {
			return err
		}
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
		if a.tuples, err = mergeCounts(a.tuples, b.tuples); err != nil {
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
		out.trials[t].keys = tr.keys
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

// combineFold is the fold as an mpi.Combine over states whose keys
// decodeFold lays out by tuples: every collective that consolidates
// exchanged state reduces with it.
func combineFold(tuples []keyLayout) mpi.Combine {
	return func(acc, in []byte) ([]byte, error) {
		a, err := decodeFold(acc, tuples)
		if err != nil {
			return nil, err
		}
		b, err := decodeFold(in, tuples)
		if err != nil {
			return nil, err
		}
		if err := a.merge(b); err != nil {
			return nil, err
		}
		return a.encode(), nil
	}
}

// exchange sums local across the ranks of comm over the configured
// collective and returns the global state, which every rank receives
// identically. tuples lays out the keys of the trials that carry no
// histograms, as decodeFold reads them.
func exchange(comm *mpi.Comm, cfg Config, local *foldState, tuples []keyLayout) (*foldState, error) {
	raw, err := consolidate(comm, cfg, local.encode(), combineFold(tuples))
	if err != nil {
		return nil, err
	}
	global, err := decodeFold(raw, tuples)
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
		tuples := s.sketch[t].clone()
		tuples.round()
		f.trials[t] = foldTrial{set: set, tuples: tuples, keys: s.cellLayout}
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
	sketches := make([]*flatTable, len(s.sets))
	for t, tr := range st.trials {
		if err := s.fitsTrial(tr.set); err != nil {
			return fmt.Errorf("core: merged state trial %d: %w", t, err)
		}
		var err error
		if sketches[t], err = sketchFromCounts(s.cellLayout, s.sketchCells(), tr.tuples); err != nil {
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
