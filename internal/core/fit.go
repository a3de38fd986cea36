package core

import (
	"fmt"

	"keybin2/internal/cluster"
	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/partition"
	"keybin2/internal/projection"
	"keybin2/internal/quality"
	"keybin2/internal/xrand"
)

// Fit clusters the rows of data with KeyBin2 on a single process and
// returns the fitted model and the per-row labels. Rows of data are points;
// columns are features. It is a one-rank FitDistributed: over a world of
// one every collective sends no message, so the serial and the distributed
// fit are one pipeline.
func Fit(data *linalg.Matrix, cfg Config) (*Model, []int, error) {
	comms, closeAll := mpi.NewWorld(1)
	defer closeAll()
	return FitDistributed(comms[0], data, cfg)
}

// projectAll applies the batched multi-trial projection (§3.4's
// optimization: one pass over the data covers all t trials) into a pooled
// block store the caller must release. For NoProjection the store is a view
// of the data itself.
func projectAll(data *linalg.Matrix, cfg Config) (*projected, *projection.Batch, error) {
	if cfg.NoProjection {
		proj, err := project(data, nil, cfg.Workers)
		return proj, nil, err
	}
	rng := xrand.New(cfg.Seed)
	batch, err := projection.NewBatch(cfg.ProjectionKind, data.Cols, cfg.TargetDims, cfg.Trials, rng)
	if err != nil {
		return nil, nil, err
	}
	proj, err := project(data, batch.Packed, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	return proj, batch, nil
}

// binAll bins every row of proj into sets (set t takes columns
// [t·N_rp, (t+1)·N_rp)) and keeps the bin indices in proj.bins for the
// count and label passes. A worker bins a whole block with linalg.BinRows
// while it is in L2, then counts the stored bins into its own count slab,
// one row of nbins+slabPad counters per column; the slabs are summed into
// sets at the end. Every histogram of sets has the same depth.
func binAll(proj *projected, sets []*histogram.Set, workers int) {
	var hists []*histogram.Hist
	for _, set := range sets {
		hists = append(hists, set.Dims...)
	}
	lo, iw := make([]float64, len(hists)), make([]float64, len(hists))
	for j, h := range hists {
		lo[j], iw[j] = h.Min, h.InvWidth()
	}
	nbins := hists[0].Bins()
	stride := nbins + slabPad
	proj.bins = make([][]uint16, len(proj.blocks))
	proj.binBufs = make([]*[]uint16, len(proj.blocks))
	slabs := forBlocks(proj, workers, func(slab *[]uint64, first int, rows []float64) {
		if *slab == nil {
			*slab = make([]uint64, len(hists)*stride)
		}
		b := first / blockRows
		proj.binBufs[b] = pooledBuf[uint16](&binPool, blockRows*proj.cols)
		out := (*proj.binBufs[b])[:len(rows)]
		proj.bins[b] = out
		linalg.BinRows(out, rows, proj.cols, lo, iw, nbins)
		counts := *slab
		for off := 0; off < len(out); off += proj.cols {
			for j, bin := range out[off : off+proj.cols] {
				counts[j*stride+int(bin)]++
			}
		}
	})
	for j, h := range hists {
		for _, slab := range slabs {
			if slab == nil {
				continue // a worker that drew no block
			}
			for bin, n := range slab[j*stride : j*stride+nbins] {
				h.Counts[bin] += n
			}
		}
		h.Total += uint64(proj.rows)
	}
}

// slabPad spaces two columns' counters in a count slab 128 bytes more
// than nbins apart, so bin b of consecutive columns does not sit at one
// offset modulo 4 KB, as it does in separate power-of-two Counts arrays.
const slabPad = 16

// partitionSet collapses uninformative dimensions and partitions the rest.
func partitionSet(set *histogram.Set, cfg Config) (parts []partition.Result, collapsed []bool) {
	parts = make([]partition.Result, len(set.Dims))
	collapsed = make([]bool, len(set.Dims))
	levels := cfg.Partition.MultiLevels
	if levels == 0 {
		levels = 3
	}
	for j, h := range set.Dims {
		if cfg.CollapseRelax > 0 && partition.Collapse(h, cfg.CollapseRelax) {
			collapsed[j] = true
			parts[j] = partition.Result{}
			continue
		}
		parts[j] = partition.PartitionMulti(h, cfg.Partition, levels)
	}
	// If everything collapsed (e.g. a projection where every direction
	// looks Gaussian), fall back to partitioning all dimensions so the
	// trial still produces an assessable model.
	all := true
	for _, c := range collapsed {
		if !c {
			all = false
			break
		}
	}
	if all && len(set.Dims) > 0 {
		for j, h := range set.Dims {
			collapsed[j] = false
			parts[j] = partition.Partition(h, cfg.Partition)
		}
	}
	return parts, collapsed
}

// trialKeys turns one trial's stored bins into tuple keys: packed through
// the labeler's bin→segment LUTs when they fit 64 bits, strings if lab is nil.
type trialKeys struct {
	parts     []partition.Result
	collapsed []bool
	lab       *labeler
}

func newTrialKeys(set *histogram.Set, parts []partition.Result, collapsed []bool) trialKeys {
	k := trialKeys{parts: parts, collapsed: collapsed}
	if codec := newTupleCodec(parts, collapsed); codec.fits {
		k.lab = newLabeler(set, parts, collapsed, codec)
	}
	return k
}

// countTuples counts every trial's tuples from the stored bins in one pass,
// into a count table per worker and trial (exact up to 2^53 points; string
// keys into a map), added into one table per trial at the end.
func countTuples(proj *projected, trials []trialKeys, workers int) []tupleCounts {
	type tables struct {
		u []flatTable
		s []map[string]uint64
	}
	locals := forBlocks(proj, workers, func(acc *tables, lo int, rows []float64) {
		if acc.u == nil {
			acc.u = make([]flatTable, len(trials))
			acc.s = make([]map[string]uint64, len(trials))
		}
		blk := proj.bins[lo/blockRows]
		for t, k := range trials {
			nrp := len(k.parts)
			if k.lab != nil {
				tab := &acc.u[t]
				for off := t * nrp; off < len(blk); off += proj.cols {
					tab.add(k.lab.binKey(blk[off:off+nrp]), 1)
				}
				continue
			}
			if acc.s[t] == nil {
				acc.s[t] = make(map[string]uint64)
			}
			segs := make([]int, nrp)
			for off := t * nrp; off < len(blk); off += proj.cols {
				segmentsOfBins(blk[off:off+nrp], k.parts, k.collapsed, segs)
				acc.s[t][packSegments(segs)]++
			}
		}
	})
	out := make([]tupleCounts, len(trials))
	for t, k := range trials {
		u, s := &flatTable{}, map[string]uint64{}
		for _, acc := range locals {
			if acc.u == nil {
				continue // a worker that drew no block
			}
			for _, c := range acc.u[t].cells {
				u.add(c.key, c.mass)
			}
			for key, n := range acc.s[t] {
				s[key] += n
			}
		}
		out[t] = tupleCounts{u: u}
		if k.lab == nil {
			out[t] = tupleCounts{s: s}
		}
	}
	return out
}

// segmentsOfBins maps a point's stored bins to its primary-cluster tuple.
func segmentsOfBins(bins []uint16, parts []partition.Result, collapsed []bool, segs []int) {
	for j := range segs {
		if collapsed[j] {
			segs[j] = 0
			continue
		}
		segs[j] = parts[j].SegmentOf(int(bins[j]))
	}
}

func segmentsOfRow(projected []float64, set *histogram.Set, parts []partition.Result, collapsed []bool, segs []int) {
	for j, h := range set.Dims {
		if collapsed[j] {
			segs[j] = 0
			continue
		}
		segs[j] = parts[j].SegmentOf(h.Bin(projected[j]))
	}
}

// trialInput is one trial as model selection reads it: its global
// histograms, their partitions, and its global tuple counts. The counts
// must be keyed under the codec the partitions imply (packed when it fits,
// string otherwise) — every rank derives them from the identical
// deterministic partition step.
type trialInput struct {
	set       *histogram.Set
	parts     []partition.Result
	collapsed []bool
	tuples    tupleCounts
}

// selectModel is the one model-selection step, the fit's and the stream's:
// every trial's candidate model (trialModel) and SelectBest's pick, the
// argmax histogram-CH. Every model shares the one slice of all trials'
// assessments. The stream's hysteresis is a post-step on the pick
// (keepTrial), and only the model a caller keeps is finished for
// labelling (finish).
func selectModel(trials []trialInput, cfg Config) ([]*Model, int, error) {
	models := make([]*Model, len(trials))
	assessments := make([]quality.Assessment, len(trials))
	for t, in := range trials {
		m, err := trialModel(in.set, in.parts, in.collapsed, in.tuples, cfg, t)
		if err != nil {
			return nil, 0, fmt.Errorf("trial %d: %w", t, err)
		}
		models[t], assessments[t], m.TrialAssessments = m, m.Assessment, assessments
	}
	return models, quality.SelectBest(assessments), nil
}

// trialModel is one trial's candidate model: its clusters and their
// assessment, which is all model selection reads.
func trialModel(set *histogram.Set, parts []partition.Result, collapsed []bool, tuples tupleCounts, cfg Config, trial int) (*Model, error) {
	codec := newTupleCodec(parts, collapsed)
	if codec.fits != (tuples.u != nil) {
		return nil, fmt.Errorf("core: tuple counts keyed inconsistently with partition codec")
	}
	clusters := buildLabels(tuples, codec, len(set.Dims), cfg.MinClusterSize, cfg.MaxClusters)
	assessment, err := quality.Assess(set, parts, clusters)
	if err != nil {
		return nil, err
	}
	return &Model{
		Set:        set,
		Parts:      parts,
		Collapsed:  collapsed,
		Clusters:   clusters,
		Assessment: assessment,
		Trial:      trial,
		codec:      codec,
	}, nil
}

// finish equips the selected trial's model to label points: the fused
// labeling kernel, the identity tuple→label map, and the trial's
// projection matrix (none when batch is nil, i.e. NoProjection).
func (m *Model) finish(batch *projection.Batch) {
	if m.codec.fits {
		m.lab = newLabeler(m.Set, m.Parts, m.Collapsed, m.codec)
	}
	m.installLabels(identityLabels(len(m.Clusters)))
	if batch != nil {
		nrp := batch.Nrp
		pm := linalg.NewMatrix(batch.Joined.Rows, nrp)
		for j := 0; j < nrp; j++ {
			pm.SetCol(j, batch.Joined.Col(m.Trial*nrp+j))
		}
		m.Projection, m.packed = pm, linalg.Pack(pm)
	}
}

// labelBins labels every row of the store under the model from its stored
// bins in columns [loCol, loCol+N_rp).
func labelBins(proj *projected, loCol int, model *Model, workers int) []int {
	nrp := len(model.Set.Dims)
	labels := make([]int, proj.rows)
	forBlocks(proj, workers, func(_ *struct{}, lo int, _ []float64) {
		blk := proj.bins[lo/blockRows]
		segs := make([]int, nrp)
		for off := loCol; off < len(blk); off += proj.cols {
			b, i := blk[off:off+nrp], lo+off/proj.cols
			labels[i] = cluster.Noise
			if !model.codec.fits {
				segmentsOfBins(b, model.Parts, model.Collapsed, segs)
				if l, ok := model.labelOfStr[packSegments(segs)]; ok {
					labels[i] = l
				}
			} else if l, ok := model.labelOf[model.lab.binKey(b)]; ok {
				labels[i] = l
			}
		}
	})
	return labels
}
