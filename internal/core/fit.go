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
	proj, err := project(data, batch.Joined, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	return proj, batch, nil
}

// trialWorkers splits a worker budget (0 = GOMAXPROCS) across concurrent
// trials, at least one worker each.
func trialWorkers(workers, trials int) int {
	return max(linalg.Workers(workers)/max(trials, 1), 1)
}

// buildSet bins all rows of the trial's columns into a fresh histogram set,
// fanning row blocks across workers with per-worker local sets merged at
// the end — the same per-point/per-dimension parallel decomposition the
// paper offloads to the GPU.
func buildSet(proj *projected, loCol int, mins, maxs []float64, depth, workers int) (*histogram.Set, error) {
	global, err := histogram.NewSet(mins, maxs, depth)
	if err != nil {
		return nil, err
	}
	nrp := len(mins)
	locals := forBlocks(proj, workers, func(local **histogram.Set, _ int, rows []float64) {
		if *local == nil {
			*local = global.Clone() // still empty: merged into only below
		}
		for off := loCol; off < len(rows); off += proj.cols {
			(*local).AddPoint(rows[off : off+nrp])
		}
	})
	for _, local := range locals {
		if local == nil {
			continue
		}
		if err := global.Merge(local); err != nil {
			return nil, err
		}
	}
	return global, nil
}

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

// countTuples maps every row to its primary-cluster tuple and counts
// occupancy, dispatching to the packed-uint64 kernel or the string fallback
// depending on whether the trial's tuple fits in 64 bits.
func countTuples(proj *projected, loCol int, set *histogram.Set, parts []partition.Result, collapsed []bool, codec tupleCodec, workers int) tupleCounts {
	if codec.fits {
		lab := newLabeler(set, parts, collapsed, codec)
		return tupleCounts{u: countTuplesPacked(proj, loCol, lab, workers)}
	}
	return tupleCounts{s: countTuplesString(proj, loCol, set, parts, collapsed, workers)}
}

// countTuplesPacked is the allocation-free counting kernel: per point, one
// multiply and one table lookup per dimension, one map increment.
func countTuplesPacked(proj *projected, loCol int, lab *labeler, workers int) map[uint64]uint64 {
	nrp := len(lab.luts)
	locals := forBlocks(proj, workers, func(local *map[uint64]uint64, _ int, rows []float64) {
		if *local == nil {
			*local = make(map[uint64]uint64)
		}
		for off := loCol; off < len(rows); off += proj.cols {
			(*local)[lab.key(rows[off:off+nrp])]++
		}
	})
	return sumCounts(locals)
}

// countTuplesString is the legacy string-keyed pass, kept as the documented
// fallback for tuples wider than 64 bits (and as the baseline the
// equivalence tests and benchmarks compare against).
func countTuplesString(proj *projected, loCol int, set *histogram.Set, parts []partition.Result, collapsed []bool, workers int) map[string]uint64 {
	nrp := len(set.Dims)
	locals := forBlocks(proj, workers, func(local *map[string]uint64, _ int, rows []float64) {
		if *local == nil {
			*local = make(map[string]uint64)
		}
		segs := make([]int, nrp)
		for off := loCol; off < len(rows); off += proj.cols {
			segmentsOfRow(rows[off:off+nrp], set, parts, collapsed, segs)
			(*local)[packSegments(segs)]++
		}
	})
	return sumCounts(locals)
}

// sumCounts adds the workers' occupancy maps into one.
func sumCounts[K comparable](locals []map[K]uint64) map[K]uint64 {
	out := make(map[K]uint64)
	for _, m := range locals {
		for k, n := range m {
			out[k] += n
		}
	}
	return out
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

// trialModel is one trial's candidate model from its global histograms,
// partitions, and global tuple counts: its clusters and their assessment,
// which is all model selection (SelectBest, the stream's hysteresis)
// reads. The tuple counts must be keyed under the codec the partitions
// imply (packed when it fits, string otherwise) — every rank derives them
// from the identical deterministic partition step. Only the selected
// trial's model is finished for labelling (finish).
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
		m.Projection = pm
	}
}

// assignAll labels every row of the projected store under the model.
func assignAll(proj *projected, loCol int, model *Model, workers int) []int {
	nrp := len(model.Set.Dims)
	labels := make([]int, proj.rows)
	forBlocks(proj, workers, func(_ *struct{}, lo int, rows []float64) {
		out := labels[lo : lo+len(rows)/proj.cols]
		if model.codec.fits {
			// Allocation-free fast path: one multiply + one LUT load per
			// dimension, one map probe per point.
			lab, labelOf := model.lab, model.labelOf
			for i := range out {
				off := i*proj.cols + loCol
				if l, ok := labelOf[lab.key(rows[off:off+nrp])]; ok {
					out[i] = l
				} else {
					out[i] = cluster.Noise
				}
			}
			return
		}
		segs := make([]int, nrp)
		for i := range out {
			off := i*proj.cols + loCol
			segmentsOfRow(rows[off:off+nrp], model.Set, model.Parts, model.Collapsed, segs)
			if l, ok := model.labelOfStr[packSegments(segs)]; ok {
				out[i] = l
			} else {
				out[i] = cluster.Noise
			}
		}
	})
	return labels
}
