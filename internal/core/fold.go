package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"keybin2/internal/histogram"
	"keybin2/internal/mpi"
	"keybin2/internal/wire"
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
	w := &wire.Writer{}
	w.Str(foldMagic)
	w.U32(foldVersion)
	w.U32(uint32(len(f.trials)))
	w.U64(f.seen)
	for _, tr := range f.trials {
		if tr.set == nil {
			w.U32(0)
		} else {
			w.Frame(tr.set.Encode())
		}
		tab := tr.tuples
		if tab != nil && tab.words == 1 {
			cells := slices.DeleteFunc(tab.sorted(), func(c int) bool { return tab.mass(c) == 0 })
			w.U8(tupleTagPacked)
			w.U32(uint32(len(cells)))
			for _, c := range cells {
				w.U64(tab.key(c)[0])
				w.U64(uint64(tab.mass(c)))
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
		w.U8(tupleTagString)
		w.U32(uint32(len(entries)))
		for _, e := range entries {
			w.Frame(e.key)
			w.U64(e.mass)
		}
	}
	return w.Buf
}

// decodeFold is the only place a consolidation payload is parsed. Its input
// comes from MPI peers and from /hist bodies, so it trusts no length. A
// trial's keys are the coarse sketch cells of its width when its
// histograms travel, and otherwise follow tuples[t] (no keys at all past
// the end of tuples): the layout a wide key's 'S' bytes become words under.
func decodeFold(b []byte, tuples []keyLayout) (*foldState, error) {
	r := wire.NewReader("core: fold state", b)
	if string(r.Bytes(4)) != foldMagic {
		return nil, fmt.Errorf("core: not a fold state (missing %q header)", foldMagic)
	}
	if v := r.U32(); r.Err() == nil && v != foldVersion {
		return nil, fmt.Errorf("core: fold state version %d unsupported", v)
	}
	const minTrialBytes = 4 + 1 + 4 // setLen, tag, nentries
	ntrials := r.U32()
	trials := r.Count(ntrials, minTrialBytes)
	if r.Err() == nil && trials == 0 {
		return nil, fmt.Errorf("core: fold state without trials")
	}
	f := &foldState{seen: r.U64(), trials: make([]foldTrial, trials)}
	for t := range f.trials {
		tr := &f.trials[t]
		if t < len(tuples) {
			tr.keys = tuples[t]
		}
		if frame := r.Frame(); len(frame) > 0 {
			set, err := histogram.DecodeSet(frame)
			if err != nil {
				return nil, fmt.Errorf("core: fold state trial %d: %w", t, err)
			}
			tr.set, tr.keys = set, sketchLayout(len(set.Dims))
		}
		var err error
		if tr.tuples, err = keyMasses(&r, tr.keys); err != nil {
			return nil, fmt.Errorf("core: fold state trial %d: %w", t, err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// keyMasses reads one trial's key masses under its layout: 'U' for
// one-word keys (or keys of no known layout, which stay words), 'S' for
// wider ones, and an empty 'S' section for no table at all — whatever
// would encode back to the same bytes.
func keyMasses(r *wire.Reader, layout keyLayout) (*flatTable, error) {
	tag, n := r.U8(), r.U32()
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case tag == tupleTagString && n == 0:
		return nil, nil
	case tag != tupleTagPacked && tag != tupleTagString:
		return nil, fmt.Errorf("core: unknown tuple-count tag %q", tag)
	case (tag == tupleTagPacked) != (layout.words <= 1):
		return nil, fmt.Errorf("core: tuple-count tag %q for keys of %d words", tag, layout.words)
	case tag == tupleTagPacked:
		tab, key := &flatTable{words: 1}, make([]uint64, 1)
		return tab, readEntries(r, r.Count(n, 16), r.U64, func(k, mass uint64) error {
			key[0] = k
			tab.add(key, float64(mass))
			return nil
		})
	}
	tab, key := &flatTable{words: layout.words}, make([]uint64, layout.words)
	var frame []byte // the entry's key bytes, compared as a string
	str := func() string { frame = r.Frame(); return string(frame) }
	return tab, readEntries(r, r.Count(n, 12), str, func(_ string, mass uint64) error {
		if err := layout.fromWire(key, frame); err != nil {
			return err
		}
		tab.add(key, float64(mass))
		return nil
	})
}

// readEntries reads n key | mass entries into put, n already vetted
// against the bytes left. Only the canonical form is accepted: keys
// strictly ascending, every mass a whole count in [1, 2^53) — the range a
// count table holds exactly.
func readEntries[K cmp.Ordered](r *wire.Reader, n int, key func() K, put func(K, uint64) error) error {
	var prev K
	for i := 0; i < n; i++ {
		k, mass := key(), r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if i > 0 && k <= prev || mass == 0 || mass >= exactMassLimit {
			return fmt.Errorf("core: tuple entry %d not canonical (key order, or mass %d)", i, mass)
		}
		if err := put(k, mass); err != nil {
			return err
		}
		prev = k
	}
	return r.Err()
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
		if err := s.fitsTrial(tr.set, tr.tuples); err != nil {
			return fmt.Errorf("core: merged state trial %d: %w", t, err)
		}
		sketches[t] = sketchFromCounts(s.cellLayout.words, tr.tuples)
	}
	for t, tr := range st.trials {
		s.sets[t] = tr.set.Clone()
	}
	s.sketch = sketches
	s.seen = int(st.seen)
	return s.Refit()
}
