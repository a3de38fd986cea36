package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"keybin2/internal/cluster"
	"keybin2/internal/histogram"
	"keybin2/internal/keys"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/obs"
	"keybin2/internal/partition"
	"keybin2/internal/projection"
	"keybin2/internal/quality"
	"keybin2/internal/xrand"
)

// StreamConfig tunes the in-situ streaming mode (§3: the M = 1 case, with
// histograms "communicated periodically — after a number of updates or a
// specific period of time").
type StreamConfig struct {
	Config
	// Dims is the raw input dimensionality.
	Dims int
	// RawRanges optionally bounds each raw dimension ([lo, hi] per dim).
	// When provided, projected ranges are derived by interval arithmetic
	// and ingestion needs no warmup buffer — the paper's "predetermined
	// space range". When nil, the first Warmup points are buffered to
	// establish ranges.
	RawRanges [][2]float64
	// Warmup is the number of points buffered to establish ranges when
	// RawRanges is nil (default 500).
	Warmup int
	// Period triggers a refit (partition + assess + relabel) every Period
	// ingested points after warmup (default 1000).
	Period int
	// DecayFactor, when in (0,1), scales histogram and key-sketch mass by
	// this factor at every refit — exponential forgetting, so clusters
	// from drifted-away regimes fade instead of accumulating forever.
	// 0 (or ≥1) disables forgetting.
	DecayFactor float64
}

func (c StreamConfig) withStreamDefaults() StreamConfig {
	if c.Warmup <= 0 {
		c.Warmup = 500
	}
	if c.Period <= 0 {
		c.Period = 1000
	}
	return c
}

// StreamConfigError reports a StreamConfig field that cannot run. It is a
// typed error so services can distinguish operator misconfiguration (reject
// the request / refuse to start) from runtime failures.
type StreamConfigError struct {
	Field  string // the offending StreamConfig field
	Reason string
}

func (e *StreamConfigError) Error() string {
	return fmt.Sprintf("core: stream config %s: %s", e.Field, e.Reason)
}

// Validate rejects stream configurations that cannot run or that silently
// would not do what they say. NewStream calls it; CLIs and services should
// call it before building a daemon around the config.
//
// DecayFactor outside [0, 1) used to silently disable forgetting; it is now
// an error, because an operator writing -decay 1.5 wants forgetting and
// must not get an accumulate-forever stream. Period < Warmup (with both
// explicitly set and a warmup buffer in use) is rejected as a swapped-flags
// misconfiguration: no refit can fire during warmup, so a period shorter
// than the warmup cannot be honored as written.
func (c StreamConfig) Validate() error {
	if c.Dims <= 0 {
		return &StreamConfigError{Field: "Dims", Reason: "stream needs Dims > 0"}
	}
	if f := c.DecayFactor; f != 0 && (f < 0 || f >= 1) {
		return &StreamConfigError{Field: "DecayFactor",
			Reason: fmt.Sprintf("%v outside [0, 1); use 0 to disable forgetting", f)}
	}
	if c.RawRanges != nil {
		if len(c.RawRanges) != c.Dims {
			return &StreamConfigError{Field: "RawRanges",
				Reason: fmt.Sprintf("%d raw ranges for %d dims", len(c.RawRanges), c.Dims)}
		}
		for i, r := range c.RawRanges {
			if err := histogram.CheckRange(r[0], r[1]); err != nil {
				return &StreamConfigError{Field: "RawRanges", Reason: fmt.Sprintf("dim %d: %v", i, err)}
			}
		}
	} else if c.Warmup > 0 && c.Period > 0 && c.Period < c.Warmup {
		return &StreamConfigError{Field: "Period",
			Reason: fmt.Sprintf("refit period %d shorter than warmup %d: no refit can fire during warmup", c.Period, c.Warmup)}
	}
	if field, reason := c.Config.invalid(); reason != "" {
		return &StreamConfigError{Field: field, Reason: reason}
	}
	return nil
}

// Stream ingests points one at a time, maintaining per-trial hierarchical
// histograms and key counters. Points are binned and discarded — memory is
// bounded by the histogram and key-sketch sizes, never by the stream
// length. The current Model labels points on the fly; every Period points
// the partitions are recomputed and the best projection reselected.
//
// The joint key sketch is kept at a coarser depth than the marginal
// histograms (sketchShift levels up): refits only need joint mass at
// segment granularity, and full-resolution tuples over N_rp dimensions
// would make the sketch grow with the stream instead of with the occupied
// cell count. Per-point labeling always bins at full resolution.
type Stream struct {
	cfg         StreamConfig
	depth       int
	sketchShift uint
	batch       *projection.Batch
	sets        []*histogram.Set
	sketch      []*flatTable   // per trial: coarse cell key → mass
	cellLayout  keyLayout      // the sketch keys' layout, sketchLayout(TargetDims)
	buffer      *linalg.Matrix // warmup rows (nil once live)
	bufUsed     int
	seen        int
	nextID      int          // next fresh stable cluster id
	refits      int          // completed refits (model publications)
	rec         obs.Recorder // stage-timing sink (nil = off); writer-only

	// Batch-apply scratch (stream_batch.go), reused across chunks so the
	// steady-state ingest path allocates nothing: one projected block of
	// blockRows rows and its bins, every projected column's bin range, the
	// coarse key of the row being sketched, and the single-point wrapper's
	// one-row header and label.
	projBlock    []float64
	bins         []uint16
	binLo, binIW []float64
	cellKey      []uint64
	ptHdr        linalg.Matrix
	ptLabel      [1]int

	// tupleMass holds sketchTuples' count table per trial, reused across
	// refits: every trial's tuples exist at once, for selectModel.
	tupleMass []flatTable

	// model is the published model. Refit builds each model fully —
	// including a detached clone of its histograms — before storing it, and
	// never mutates a model after the store, so the pointer read by
	// Snapshot always refers to an immutable value. The atomic is what
	// makes the single-writer/many-reader service pattern sound: one
	// goroutine owns Ingest/Refit, any number may call Snapshot.
	model atomic.Pointer[Model]

	// Global state as of the last SyncDistributed, so subsequent syncs ship
	// only the delta (nil before the first sync).
	synced *foldState
}

// NewStream creates a streaming clusterer. cfg.Dims must be set; all other
// fields default sensibly.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withStreamDefaults()
	// Defaults sized by the warmup: the binning depth must be fixed before
	// the stream length is known.
	sized := cfg.Config.withDefaults(max(cfg.Warmup, 1024), cfg.Dims)
	cfg.Config = sized
	depth := cfg.Depth
	if depth == 0 {
		depth = keys.DefaultDepth(100000) // stream-scale default: log₂²(100k) ≈ 283 bins
	}

	s := &Stream{cfg: cfg, depth: depth, tupleMass: make([]flatTable, cfg.Trials),
		cellLayout: sketchLayout(cfg.TargetDims)}
	s.cellKey = make([]uint64, s.cellLayout.words)
	// Sketch cells at ≤ 32 per dimension: coarse enough that the occupied
	// cell count tracks the cluster structure, fine enough to re-segment
	// under moving cuts.
	const maxSketchDepth = 5
	if depth > maxSketchDepth {
		s.sketchShift = uint(depth - maxSketchDepth)
	}
	if !cfg.NoProjection {
		batch, err := projection.NewBatch(cfg.ProjectionKind, cfg.Dims, cfg.TargetDims, cfg.Trials, xrand.New(cfg.Seed))
		if err != nil {
			return nil, err
		}
		s.batch = batch
	}
	if cfg.RawRanges != nil {
		if err := s.initSetsFromRawRanges(); err != nil {
			return nil, err
		}
	} else {
		s.buffer = linalg.NewMatrix(cfg.Warmup, cfg.Dims)
	}
	return s, nil
}

// initSetsFromRawRanges derives projected ranges per trial dimension from
// the raw per-dimension boxes. A worst-case interval bound (Σ|aᵢ|·Bᵢ) is
// far too loose in high dimension — the data would occupy a small middle
// slice of every histogram and the partitioner would over-smooth — so the
// range is the projected box center ± 4 standard deviations of a uniform
// distribution over the box. Points outside clamp into the edge bins,
// which the binning tolerates by design.
func (s *Stream) initSetsFromRawRanges() error {
	nrp := s.cfg.TargetDims
	mins, maxs := make([]float64, s.cfg.Trials*nrp), make([]float64, s.cfg.Trials*nrp)
	for col := range mins {
		if s.batch == nil {
			mins[col], maxs[col] = s.cfg.RawRanges[col%nrp][0], s.cfg.RawRanges[col%nrp][1]
			continue
		}
		var center, variance float64
		for i := 0; i < s.cfg.Dims; i++ {
			a := s.batch.Joined.At(i, col)
			rlo, rhi := s.cfg.RawRanges[i][0], s.cfg.RawRanges[i][1]
			center += a * (rlo + rhi) / 2
			width := a * (rhi - rlo)
			variance += width * width / 12
		}
		spread := 4 * math.Sqrt(variance)
		mins[col], maxs[col] = center-spread, center+spread
	}
	return s.initSets(mins, maxs)
}

// initSetsFromBuffer establishes ranges from the warmup buffer and replays
// the buffered points into the histograms.
func (s *Stream) initSetsFromBuffer() error {
	data := &linalg.Matrix{Rows: s.bufUsed, Cols: s.cfg.Dims, Data: s.buffer.Data[:s.bufUsed*s.cfg.Dims]}
	var joined *linalg.Packed
	if s.batch != nil {
		joined = s.batch.Packed
	}
	proj, err := project(data, joined, s.cfg.Workers)
	if err != nil {
		return err
	}
	defer proj.release()
	// Widen by 10% per side: the warmup sample underestimates the stream's
	// true extent, and out-of-range points clamp into edge bins.
	mins, maxs := proj.mins, proj.maxs
	for j := range mins {
		pad := (maxs[j] - mins[j]) * 0.1
		if pad == 0 {
			pad = 0.5
		}
		mins[j] -= pad
		maxs[j] += pad
	}
	if err := s.initSets(mins, maxs); err != nil {
		return err
	}
	s.applyChunk(data, 0, s.bufUsed, nil)
	s.buffer = nil
	return nil
}

// initSets gives every trial an empty sketch and histograms over its
// columns of mins/maxs, the Trials·TargetDims projected ranges. On a range
// NewSet refuses (a decoder would) it fails and leaves the stream as it was.
func (s *Stream) initSets(mins, maxs []float64) error {
	nrp := s.cfg.TargetDims
	sets := make([]*histogram.Set, s.cfg.Trials)
	sketch := make([]*flatTable, s.cfg.Trials)
	for t := range sets {
		set, err := histogram.NewSet(mins[t*nrp:(t+1)*nrp], maxs[t*nrp:(t+1)*nrp], s.depth)
		if err != nil {
			return fmt.Errorf("core: trial %d projected ranges: %w", t, err)
		}
		sets[t], sketch[t] = set, &flatTable{words: s.cellLayout.words}
	}
	s.sets, s.sketch = sets, sketch
	return nil
}

// sketchCells is the number of coarse sketch cells per dimension.
func (s *Stream) sketchCells() uint32 { return 1 << (uint(s.depth) - s.sketchShift) }

// sketchBinCenter maps a coarse sketch bin back to the finest-level bin at
// its cell center, for segment assignment during refits.
func (s *Stream) sketchBinCenter(coarse uint32) int {
	if s.sketchShift == 0 {
		return int(coarse)
	}
	return int(coarse<<s.sketchShift) + int(uint32(1)<<(s.sketchShift-1))
}

// snapCutsToSketch aligns every cut to the end of its coarse sketch cell,
// so no cell straddles a segment boundary. Without this, the sketch (which
// assigns whole cells to segments) and exact per-point binning would
// disagree about points in straddling cells, and the model's tuple→label
// map would not match what Assign computes. The snap costs at most one
// cell width (1/32 of the range) of cut precision.
func (s *Stream) snapCutsToSketch(p partition.Result, nbins int) partition.Result {
	if s.sketchShift == 0 || len(p.Cuts) == 0 {
		return p
	}
	cell := 1 << s.sketchShift
	snapped := p.Cuts[:0]
	prev := -1
	for _, c := range p.Cuts {
		aligned := (c>>s.sketchShift)<<s.sketchShift + cell - 1
		if aligned >= nbins-1 {
			continue // cutting after the last bin separates nothing
		}
		if aligned != prev {
			snapped = append(snapped, aligned)
			prev = aligned
		}
	}
	p.Cuts = snapped
	return p
}

// Ingest feeds one point into the stream and returns its label under the
// current model (cluster.Noise during warmup or before the first refit).
// It is a one-row IngestBatch: both paths run the same arithmetic in the
// same order, so point-at-a-time and batched ingestion produce identical
// histograms, sketches, and labels.
func (s *Stream) Ingest(x []float64) (int, error) {
	if len(x) != s.cfg.Dims {
		return cluster.Noise, fmt.Errorf("core: point has %d dims, stream expects %d", len(x), s.cfg.Dims)
	}
	s.ptHdr = linalg.Matrix{Rows: 1, Cols: s.cfg.Dims, Data: x}
	s.ptLabel[0] = cluster.Noise
	_, err := s.IngestBatchLabels(&s.ptHdr, s.ptLabel[:])
	return s.ptLabel[0], err
}

// Refit recomputes partitions for every trial from the accumulated
// histograms, rebuilds the cluster models from the key sketches, and
// selects the best projection. It is called automatically every Period
// points; callers may also invoke it manually (e.g. at simulation phase
// boundaries).
func (s *Stream) Refit() error {
	if s.sets == nil {
		return nil // still warming up
	}
	if s.rec != nil {
		start := time.Now()
		defer func() { s.rec.RecordStage("refit", time.Since(start)) }()
	}
	if f := s.cfg.DecayFactor; f > 0 && f < 1 {
		for t := range s.sets {
			s.sets[t].Decay(f)
			s.sketch[t].decay(f)
		}
	}
	cfg := s.cfg.Config
	cfg.MinClusterSize = s.minClusterSize()
	trials := make([]trialInput, len(s.sets))
	for t, set := range s.sets {
		parts, collapsed := partitionSet(set, cfg)
		for j := range parts {
			parts[j] = s.snapCutsToSketch(parts[j], set.Dims[j].Bins())
		}
		// The tuple of each coarse cell: its center bin's segments.
		segment := segmentField(parts, collapsed)
		lab := binLabeler(tupleLayout(parts, collapsed), int(s.sketchCells()), func(j, cell int) uint64 {
			return segment(j, s.sketchBinCenter(uint32(cell)))
		})
		trials[t] = trialInput{set, parts, collapsed, s.sketchTuples(t, lab)}
	}
	models, best, err := selectModel(trials, cfg)
	if err != nil {
		return err
	}
	prev := s.model.Load()
	best = keepTrial(prev, models[best].TrialAssessments, best)
	next := models[best]
	// Detach the new model from the live histograms before publication:
	// trialModel aliased the trial's Set, which this stream keeps
	// mutating (applyChunk, Decay) after the refit. Snapshot readers may
	// Encode or Describe the model concurrently, so the published model
	// must own an immutable copy. The clone is bins-bounded (N_rp
	// histograms of ≤ 2^depth cells), independent of stream length.
	next.Set = next.Set.Clone()
	next.finish(s.batch)
	s.stabilizeLabels(prev, next)
	s.model.Store(next)
	s.refits++
	return nil
}

// keepTrial is the stream's hysteresis, a post-step on selectModel's pick:
// once a model is live, stay on its trial unless the pick's CH is at least
// 1.2× the current trial's — switching trials discards label continuity,
// so it must buy a real separability improvement.
func keepTrial(prev *Model, assessments []quality.Assessment, best int) int {
	if prev != nil && best != prev.Trial && assessments[best].CH < 1.2*assessments[prev.Trial].CH {
		return prev.Trial
	}
	return best
}

// sketchTuples sums trial t's sketch masses per segment tuple, keyed by
// lab, the trial's tuple labeler over coarse cells, as trialModel
// expects. A coarse cell lies inside one segment per dimension
// (snapCutsToSketch), so its whole mass goes to one tuple. Masses are summed
// in float into s.tupleMass[t], which every refit reuses, in the sketch's
// insertion order, and rounded once (flatTable.round).
func (s *Stream) sketchTuples(t int, lab *labeler) *flatTable {
	sk := s.sketch[t]
	acc := &s.tupleMass[t]
	acc.reset(lab.words())
	if sk.words == 1 && lab.words() == 1 {
		// One word each way: the components shift out of a register into
		// the per-dimension tables, as the ingest shifted them in.
		luts := lab.luts[0]
		for c := range sk.len() {
			pk, tuple := sk.key(c)[0], uint64(0)
			for j := len(luts) - 1; j >= 0; j-- {
				tuple |= luts[j][pk&(1<<sketchBitsPerDim-1)]
				pk >>= sketchBitsPerDim
			}
			acc.add1(tuple, sk.mass(c))
		}
	} else {
		comps, key := make([]uint16, s.cfg.TargetDims), make([]uint64, lab.words())
		for c := range sk.len() {
			cellComponents(comps, sk.key(c), s.cellLayout)
			lab.binKey(key, comps)
			acc.add(key, sk.mass(c))
		}
	}
	acc.round()
	return acc
}

// stabilizeLabels renames next's cluster labels so clusters persist across
// refits: each new cluster's centroid (per-dimension mode-bin centers) is
// assigned under the previous model; when that yields a live label it is
// reused, otherwise a fresh id is allocated. Without this step every refit
// would renumber clusters by mass and streamed labels would lose global
// consistency.
func (s *Stream) stabilizeLabels(prev, next *Model) {
	if prev == nil || prev.Trial != next.Trial {
		// First model, or a projection switch: labels start (over) fresh
		// beyond any previously issued id so stale and new ids never mix.
		if prev != nil {
			labels := make([]int, len(next.Clusters))
			for i := range labels {
				labels[i] = s.nextID + i
			}
			next.installLabels(labels)
			s.nextID += len(next.Clusters)
		} else {
			s.nextID = len(next.Clusters)
		}
		return
	}
	used := make(map[int]bool)
	labels := make([]int, len(next.Clusters))
	// Walk clusters in mass order so the heaviest clusters win contended
	// old labels.
	for i := range next.Clusters {
		centroid := clusterCentroid(next, i)
		old := prev.AssignProjected(centroid)
		if old != cluster.Noise && !used[old] {
			labels[i] = old
			used[old] = true
			if old >= s.nextID {
				s.nextID = old + 1
			}
			continue
		}
		labels[i] = s.nextID
		used[s.nextID] = true
		s.nextID++
	}
	next.installLabels(labels)
}

// clusterCentroid returns cluster q's representative point in the model's
// projected subspace: per dimension, the center of the mode bin within the
// cluster's bin range (collapsed dimensions use the global mode).
func clusterCentroid(m *Model, q int) []float64 {
	cl := m.Clusters[q]
	out := make([]float64, len(m.Set.Dims))
	for j, h := range m.Set.Dims {
		if m.Collapsed[j] {
			out[j] = h.Center(h.Mode())
			continue
		}
		rng := m.Parts[j].Ranges(h.Bins())[cl.Segments[j]]
		lo, hi := rng[0], rng[1]
		mode, modeCount := lo, uint64(0)
		for b := lo; b <= hi; b++ {
			if h.Counts[b] > modeCount {
				mode, modeCount = b, h.Counts[b]
			}
		}
		out[j] = h.Center(mode)
	}
	return out
}

// minClusterSize scales the dust filter with the effective (post-decay)
// histogram mass rather than the raw stream length.
func (s *Stream) minClusterSize() int {
	mass := s.seen
	if len(s.sets) > 0 {
		mass = int(s.sets[0].Total())
	}
	return max(2, mass/1000)
}

// SetRecorder installs a pipeline-stage timing sink: Refit reports
// "refit" and the warmup-range initialization reports "warmup_init".
// Writer-only, like Ingest/Refit — install it before serving begins. A
// nil Recorder disables reporting.
func (s *Stream) SetRecorder(r obs.Recorder) { s.rec = r }

// Model returns the current model (nil before the first refit). It is an
// alias for Snapshot and shares its concurrency contract.
func (s *Stream) Model() *Model { return s.model.Load() }

// Snapshot returns the most recently published model (nil before the first
// refit). The returned Model is immutable: the stream never mutates a model
// after publication, and its histograms are detached from the live ingest
// state. Snapshot is safe to call from any goroutine concurrently with a
// single writer running Ingest/Refit — the single-writer/many-reader
// contract a serving layer builds on. Callers may Assign, Encode, and
// Describe the snapshot freely while ingestion continues.
//
// Every other Stream method (Ingest, Refit, Encode, Seen, …) remains
// writer-only: they read and mutate unsynchronized ingest state.
func (s *Stream) Snapshot() *Model { return s.model.Load() }

// Seen returns the number of ingested points. Writer-only.
func (s *Stream) Seen() int { return s.seen }

// Refits returns the number of completed refits (model publications) since
// the stream was created or restored. Writer-only.
func (s *Stream) Refits() int { return s.refits }

// SketchSize reports the stream's state footprint: total histogram bins
// across trials and dimensions, and distinct keys in the sketches. Both
// are bounded by the binning resolution — not by the stream length — which
// is the in-situ memory guarantee.
func (s *Stream) SketchSize() (bins, distinctKeys int) {
	for t, set := range s.sets {
		for _, h := range set.Dims {
			bins += h.Bins()
		}
		if s.sketch != nil {
			distinctKeys += s.sketch[t].len()
		}
	}
	return bins, distinctKeys
}

// SyncDistributed merges this rank's histograms and key sketches with all
// other ranks' and refits on the consolidated state. After the call every
// rank holds the same global model — the paper's periodic histogram
// exchange for distributed streams. Ranks must call it collectively and at
// the same point in their control flow.
//
// Only the *delta* since the previous sync is exchanged (as one
// consolidation fold, see fold.go), so repeated syncs neither double-count
// mass nor grow the payload with stream length. Distributed sync is
// incompatible with DecayFactor: forgetting would have to be coordinated
// across ranks, which this engine does not attempt.
func (s *Stream) SyncDistributed(comm *mpi.Comm) error {
	if s.sets == nil {
		return fmt.Errorf("core: SyncDistributed before warmup completed")
	}
	if f := s.cfg.DecayFactor; f > 0 && f < 1 {
		return fmt.Errorf("core: SyncDistributed is incompatible with DecayFactor")
	}
	// The live state is the last synced global state plus what this rank
	// ingested since; before the first sync it is all this rank's own.
	delta := s.fold()
	if s.synced != nil {
		delta = delta.minus(s.synced)
	}
	global, err := exchange(comm, s.cfg.Config, delta, nil)
	if err != nil {
		return err
	}
	// New global state = previous global state + summed deltas.
	if s.synced == nil {
		s.synced = global
	} else if err := s.synced.merge(global); err != nil {
		return err
	}
	// Every rank now adopts identical state; the deterministic refit
	// yields identical models.
	return s.adopt(s.synced)
}
