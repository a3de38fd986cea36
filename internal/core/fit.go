package core

import (
	"fmt"
	"sync"

	"keybin2/internal/cluster"
	"keybin2/internal/histogram"
	"keybin2/internal/keys"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/projection"
	"keybin2/internal/quality"
	"keybin2/internal/xrand"
)

// Fit clusters the rows of data with KeyBin2 on a single process and
// returns the fitted model and the per-row labels. Rows of data are points;
// columns are features.
func Fit(data *linalg.Matrix, cfg Config) (*Model, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	m, n := data.Rows, data.Cols
	if m == 0 || n == 0 {
		return nil, nil, fmt.Errorf("core: empty data %dx%d", m, n)
	}
	cfg = cfg.withDefaults(m, n)
	depth := cfg.Depth
	if depth == 0 {
		depth = keys.DefaultDepth(m)
	}

	// The projection pass also establishes every trial's per-dimension
	// ranges, block by block while each is in cache.
	proj, batch, err := projectAll(data, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer proj.release()

	// The t bootstrap trials are independent until SelectBest, so they run
	// concurrently, splitting the worker budget between them (each trial's
	// binning/counting passes parallelize internally over its share).
	trials := make([]*Model, cfg.Trials)
	assessments := make([]quality.Assessment, cfg.Trials)
	errs := make([]error, cfg.Trials)
	perTrial := trialWorkers(cfg.Workers, cfg.Trials)
	var wg sync.WaitGroup
	for t := 0; t < cfg.Trials; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			loCol := t * cfg.TargetDims
			mins := proj.mins[loCol : loCol+cfg.TargetDims]
			maxs := proj.maxs[loCol : loCol+cfg.TargetDims]
			set, err := buildSet(proj, loCol, mins, maxs, depth, perTrial)
			if err != nil {
				errs[t] = fmt.Errorf("trial %d: %w", t, err)
				return
			}
			model, err := finishTrial(set, proj, loCol, cfg, t, batch, perTrial)
			if err != nil {
				errs[t] = fmt.Errorf("trial %d: %w", t, err)
				return
			}
			trials[t] = model
			assessments[t] = model.Assessment
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	best := quality.SelectBest(assessments)
	model := trials[best]
	model.TrialAssessments = assessments

	labels := assignAll(proj, best*cfg.TargetDims, model, cfg.Workers)
	return model, labels, nil
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

// finishTrial partitions, counts tuples, builds labels, and assesses one
// trial, producing its Model.
func finishTrial(set *histogram.Set, proj *projected, loCol int, cfg Config, trial int, batch *projection.Batch, workers int) (*Model, error) {
	parts, collapsed := partitionSet(set, cfg)
	codec := newTupleCodec(parts, collapsed)
	tuples := countTuples(proj, loCol, set, parts, collapsed, codec, workers)
	return assembleModel(set, parts, collapsed, tuples, cfg, trial, batch)
}

// assembleModel finalizes a trial from its global histograms, partitions,
// and global tuple counts. It is shared by the serial and distributed
// drivers. The tuple counts must be keyed under the codec the partitions
// imply (packed when it fits, string otherwise) — both drivers derive them
// from the identical deterministic partition step.
func assembleModel(set *histogram.Set, parts []partition.Result, collapsed []bool, tuples tupleCounts, cfg Config, trial int, batch *projection.Batch) (*Model, error) {
	codec := newTupleCodec(parts, collapsed)
	if codec.fits != (tuples.u != nil) {
		return nil, fmt.Errorf("core: tuple counts keyed inconsistently with partition codec")
	}
	clusters := buildLabels(tuples, codec, len(set.Dims), cfg.MinClusterSize, cfg.MaxClusters)
	assessment, err := quality.Assess(set, parts, clusters)
	if err != nil {
		return nil, err
	}
	model := &Model{
		Set:        set,
		Parts:      parts,
		Collapsed:  collapsed,
		Clusters:   clusters,
		Assessment: assessment,
		Trial:      trial,
		codec:      codec,
	}
	if codec.fits {
		model.lab = newLabeler(set, parts, collapsed, codec)
	}
	model.installLabels(identityLabels(len(clusters)))
	if batch != nil {
		nrp := batch.Nrp
		pm := linalg.NewMatrix(batch.Joined.Rows, nrp)
		for j := 0; j < nrp; j++ {
			pm.SetCol(j, batch.Joined.Col(trial*nrp+j))
		}
		model.Projection = pm
	}
	return model, nil
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
