package core

import (
	"fmt"

	"keybin2/internal/histogram"
	"keybin2/internal/keys"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
)

// FitDistributed clusters data sharded across the ranks of comm. Each rank
// passes its local rows; the returned labels cover the local rows and are
// globally consistent (label i means the same cluster on every rank).
//
// Communication follows §3 exactly: ranks exchange only per-dimension
// binning histograms (plus the aggregated key-tuple counts that define the
// final clusters); no point ever leaves its rank. The projection matrices
// are derived from cfg.Seed on every rank rather than shipped. With
// cfg.Ring the histogram consolidation runs around a ring instead of the
// binomial reduce+broadcast tree.
//
// Every rank must call FitDistributed with the same cfg. The total point
// count must be positive; a rank may hold zero rows but not zero columns.
func FitDistributed(comm *mpi.Comm, local *linalg.Matrix, cfg Config) (*Model, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if local.Cols == 0 {
		return nil, nil, fmt.Errorf("core: data %dx%d has no columns", local.Rows, local.Cols)
	}
	n := local.Cols

	// Agree on the global point count (cfg defaults depend on it).
	totRaw, err := comm.Allreduce(mpi.EncodeUint64s([]uint64{uint64(local.Rows)}), mpi.SumUint64s)
	if err != nil {
		return nil, nil, commError("point-count agreement", err)
	}
	tot, err := mpi.DecodeUint64s(totRaw)
	if err != nil {
		return nil, nil, err
	}
	globalM := int(tot[0])
	if globalM == 0 {
		return nil, nil, fmt.Errorf("core: no data on any rank")
	}
	cfg = cfg.withDefaults(globalM, n)
	depth := cfg.Depth
	if depth == 0 {
		depth = keys.DefaultDepth(globalM)
	}

	proj, batch, err := projectAll(local, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer proj.release()

	// Agree on global per-dimension ranges for all trials at once:
	// interleaved (min, max) pairs over Trials·TargetDims dimensions, the
	// local ones established by the projection pass. A rank with no rows
	// contributes (+Inf, −Inf), which leaves every other rank's range as is.
	totalDims := cfg.Trials * cfg.TargetDims
	mm := make([]float64, 2*totalDims)
	for d := 0; d < totalDims; d++ {
		mm[2*d], mm[2*d+1] = proj.mins[d], proj.maxs[d]
	}
	mmRaw, err := consolidate(comm, cfg, mpi.EncodeFloat64s(mm), mpi.MinMaxFloat64s)
	if err != nil {
		return nil, nil, commError("range consolidation", err)
	}
	gmm, err := mpi.DecodeFloat64s(mmRaw)
	if err != nil {
		return nil, nil, err
	}

	// Bin every local point of every trial once, keeping the bins, and
	// consolidate the histograms: all trials' sets travel as one value.
	nrp := cfg.TargetDims
	sets := make([]*histogram.Set, cfg.Trials)
	mins, maxs := make([]float64, nrp), make([]float64, nrp)
	for t := range sets {
		for j := range nrp {
			mins[j], maxs[j] = gmm[2*(t*nrp+j)], gmm[2*(t*nrp+j)+1]
		}
		if sets[t], err = histogram.NewSet(mins, maxs, depth); err != nil {
			return nil, nil, fmt.Errorf("core: trial %d projected ranges: %w", t, err)
		}
	}
	binAll(proj, sets, cfg.Workers)
	contrib := &foldState{seen: uint64(local.Rows), trials: make([]foldTrial, cfg.Trials)}
	for t, set := range sets {
		if cfg.SuppressBelow >= 2 {
			set.Suppress(uint64(cfg.SuppressBelow))
		}
		contrib.trials[t].set = set
	}
	hists, err := exchange(comm, cfg, contrib, nil)
	if err != nil {
		return nil, nil, commError("histogram consolidation", err)
	}

	// Every rank partitions the identical global histograms — the
	// partition step is deterministic, so computing it redundantly
	// everywhere is equivalent to (and cheaper than) a root partition +
	// cut broadcast. The same holds for label construction below, since
	// buildLabels orders tuples deterministically.
	keyings := make([]trialKeys, cfg.Trials)
	layouts := make([]keyLayout, cfg.Trials)
	for t := range keyings {
		set := hists.trials[t].set
		parts, collapsed := partitionSet(set, cfg)
		keyings[t] = newTrialKeys(set, parts, collapsed)
		layouts[t] = keyings[t].lab.layout
	}
	for t, counts := range countTuples(proj, keyings, cfg.Workers) {
		if k := float64(cfg.SuppressBelow); k >= 2 {
			counts.filter(func(m float64) (float64, bool) { return m, m >= k })
		}
		// The second round carries key masses only.
		contrib.trials[t] = foldTrial{tuples: counts, keys: layouts[t]}
	}
	tuples, err := exchange(comm, cfg, contrib, layouts)
	if err != nil {
		return nil, nil, commError("tuple-count consolidation", err)
	}
	trials := make([]trialInput, cfg.Trials)
	for t, k := range keyings {
		trials[t] = trialInput{hists.trials[t].set, k.parts, k.collapsed, tuples.trials[t].tuples}
	}
	models, best, err := selectModel(trials, cfg)
	if err != nil {
		return nil, nil, err
	}
	model := models[best]
	model.finish(batch)
	labels := labelBins(proj, best*nrp, model, cfg.Workers)
	return model, labels, nil
}

// consolidate runs the configured histogram-consolidation collective.
func consolidate(comm *mpi.Comm, cfg Config, payload []byte, op mpi.Combine) ([]byte, error) {
	if cfg.Ring {
		return comm.RingAllreduce(payload, op)
	}
	return comm.Allreduce(payload, op)
}

// commError tags a communication failure with the pipeline stage it
// interrupted. A RankFailedError stays unwrappable (errors.As /
// mpi.IsRankFailure) so callers can tell "a peer died mid-fit" from a local
// error and degrade gracefully — e.g. refit over the surviving ranks —
// instead of retrying blindly. The paper's mpi4py baseline has no analogue:
// a dead rank there stalls the collective until the scheduler kills the job.
func commError(stage string, err error) error {
	if rank, ok := mpi.IsRankFailure(err); ok {
		return fmt.Errorf("core: %s: peer rank %d failed mid-collective: %w", stage, rank, err)
	}
	return fmt.Errorf("core: %s: %w", stage, err)
}
