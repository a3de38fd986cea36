package core

import (
	"fmt"
	"slices"
	"unsafe"

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
// count and label passes; the floats are gone after it. A worker bins a
// whole block with linalg.BinRows while it is in L2, over the block's own
// floats (a view's are the caller's: its bins get a buffer), then counts
// the stored bins into its own count slab, one row of nbins+slabPad
// counters per column; the slabs are summed into sets at the end. Every
// histogram of sets has the same depth.
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
	slabs := forBlocks(proj, workers, func(slab *[]uint64, first int, rows []float64) {
		if *slab == nil {
			*slab = make([]uint64, len(hists)*stride)
		}
		// In place: BinRows lets dst start at rows' first byte.
		out := unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows))
		if proj.view {
			out = make([]uint16, len(rows))
		}
		proj.bins[first/blockRows] = out
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
	clear(proj.blocks) // the floats are bins now
}

// slabPad spaces two columns' counters in a count slab 128 bytes more
// than nbins apart, so bin b of consecutive columns does not sit at one
// offset modulo 4 KB, as it does in separate power-of-two Counts arrays.
const slabPad = 16

// partitionSet collapses uninformative dimensions (partition.Collapse, at
// the exact 5 % level) and partitions the rest.
func partitionSet(set *histogram.Set) (parts []partition.Result, collapsed []bool) {
	parts = make([]partition.Result, len(set.Dims))
	collapsed = make([]bool, len(set.Dims))
	for j, h := range set.Dims {
		if collapsed[j] = partition.Collapse(h); !collapsed[j] {
			parts[j] = partition.PartitionMulti(h)
		}
	}
	// If everything collapsed (e.g. a projection where every direction
	// looks Gaussian), fall back to partitioning all dimensions so the
	// trial still produces an assessable model.
	if len(set.Dims) > 0 && !slices.Contains(collapsed, false) {
		for j, h := range set.Dims {
			collapsed[j] = false
			parts[j] = partition.Partition(h, partition.DiscreteOpt)
		}
	}
	return parts, collapsed
}

// trialKeys turns one trial's stored bins into tuple keys through the
// labeler's bin→segment tables.
type trialKeys struct {
	parts     []partition.Result
	collapsed []bool
	lab       *labeler
}

func newTrialKeys(set *histogram.Set, parts []partition.Result, collapsed []bool) trialKeys {
	lab := binLabeler(tupleLayout(parts, collapsed), set.Dims[0].Bins(), segmentField(parts, collapsed))
	return trialKeys{parts: parts, collapsed: collapsed, lab: lab}
}

// countTuples counts every trial's tuples from the stored bins in one pass,
// into a count table per worker and trial (exact up to 2^53 points), added
// into one table per trial at the end.
func countTuples(proj *projected, trials []trialKeys, workers int) []*flatTable {
	type tables struct {
		counts []flatTable
		keys   []uint64
	}
	locals := forBlocks(proj, workers, func(acc *tables, lo int, _ []float64) {
		if acc.counts == nil {
			acc.counts = make([]flatTable, len(trials))
			words := 1
			for t, k := range trials {
				acc.counts[t].words = k.lab.words()
				words = max(words, k.lab.words())
			}
			acc.keys = make([]uint64, blockRows*words)
		}
		blk := proj.bins[lo/blockRows]
		for t, k := range trials {
			k.lab.count(&acc.counts[t], acc.keys, blk, t*len(k.parts), proj.cols)
		}
	})
	out := make([]*flatTable, len(trials))
	for t, k := range trials {
		out[t] = &flatTable{words: k.lab.words()}
		for _, acc := range locals {
			if acc.counts != nil { // nil: a worker that drew no block
				out[t], _ = mergeCounts(out[t], &acc.counts[t])
			}
		}
	}
	return out
}

// trialInput is one trial as model selection reads it: its global
// histograms, their partitions, and its global tuple counts (nil: none).
// The counts must be keyed under the layout the partitions imply — every
// rank derives it from the identical deterministic partition step.
type trialInput struct {
	set       *histogram.Set
	parts     []partition.Result
	collapsed []bool
	tuples    *flatTable
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
		m, err := trialModel(in.set, in.parts, in.collapsed, in.tuples, cfg.MinClusterSize, maxClusters, t)
		if err != nil {
			return nil, 0, fmt.Errorf("trial %d: %w", t, err)
		}
		models[t], assessments[t], m.TrialAssessments = m, m.Assessment, assessments
	}
	return models, quality.SelectBest(assessments), nil
}

// maxClusters caps the clusters a model keeps for assessment and
// labelling: the most massive survive, the rest are noise.
const maxClusters = 256

// trialModel is one trial's candidate model: its clusters (the most
// massive tuples of at least minSize points, at most maxKeep of them) and
// their assessment, which is all model selection reads.
func trialModel(set *histogram.Set, parts []partition.Result, collapsed []bool, tuples *flatTable, minSize, maxKeep, trial int) (*Model, error) {
	layout := tupleLayout(parts, collapsed)
	if tuples != nil && tuples.words != layout.words {
		return nil, fmt.Errorf("core: tuple counts keyed in %d words, the partitions' tuples take %d", tuples.words, layout.words)
	}
	clusters := buildLabels(tuples, layout, minSize, maxKeep)
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
	}, nil
}

// finish equips the selected trial's model to label points: the fused
// labeling kernel, the identity tuple→label map, and the trial's
// projection matrix (none when batch is nil, i.e. NoProjection).
func (m *Model) finish(batch *projection.Batch) {
	m.equip()
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
	labels := make([]int, proj.rows)
	forBlocks(proj, workers, func(keys *[]uint64, lo int, _ []float64) {
		if *keys == nil {
			*keys = make([]uint64, blockRows*model.lab.words())
		}
		blk := proj.bins[lo/blockRows]
		model.labelRows(labels[lo:lo+len(blk)/proj.cols], *keys, blk, loCol, proj.cols)
	})
	return labels
}
