package core

import (
	"fmt"
	"sync"

	"keybin2/internal/keys"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/partition"
	"keybin2/internal/quality"
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

	// Bin local points per trial and consolidate histograms. Trials are
	// independent, so local binning runs concurrently over a shared worker
	// budget; all trials' sets then travel as one fold value.
	contrib := &foldState{seen: uint64(local.Rows), trials: make([]foldTrial, cfg.Trials)}
	binErrs := make([]error, cfg.Trials)
	perTrial := trialWorkers(cfg.Workers, cfg.Trials)
	var binWG sync.WaitGroup
	for t := 0; t < cfg.Trials; t++ {
		binWG.Add(1)
		go func(t int) {
			defer binWG.Done()
			mins := make([]float64, cfg.TargetDims)
			maxs := make([]float64, cfg.TargetDims)
			for j := 0; j < cfg.TargetDims; j++ {
				d := t*cfg.TargetDims + j
				mins[j], maxs[j] = gmm[2*d], gmm[2*d+1]
			}
			set, err := buildSet(proj, t*cfg.TargetDims, mins, maxs, depth, perTrial)
			if err != nil {
				binErrs[t] = fmt.Errorf("trial %d: %w", t, err)
				return
			}
			if cfg.SuppressBelow >= 2 {
				set.Suppress(uint64(cfg.SuppressBelow))
			}
			contrib.trials[t].set = set
		}(t)
	}
	binWG.Wait()
	for _, err := range binErrs {
		if err != nil {
			return nil, nil, err
		}
	}
	hists, err := exchange(comm, cfg, contrib)
	if err != nil {
		return nil, nil, commError("histogram consolidation", err)
	}

	// Every rank partitions the identical global histograms — the
	// partition step is deterministic, so computing it redundantly
	// everywhere is equivalent to (and cheaper than) a root partition +
	// cut broadcast. The same holds for label construction below, since
	// buildLabels orders tuples deterministically.
	models := make([]*Model, cfg.Trials)
	assessments := make([]quality.Assessment, cfg.Trials)
	partResults := make([]trialPartitions, cfg.Trials)
	var cntWG sync.WaitGroup
	for t := 0; t < cfg.Trials; t++ {
		cntWG.Add(1)
		go func(t int) {
			defer cntWG.Done()
			set := hists.trials[t].set
			parts, collapsed := partitionSet(set, cfg)
			partResults[t] = trialPartitions{parts: parts, collapsed: collapsed}
			codec := newTupleCodec(parts, collapsed)
			counts := countTuples(proj, t*cfg.TargetDims, set, parts, collapsed, codec, perTrial)
			if cfg.SuppressBelow >= 2 {
				counts.dropBelow(uint64(cfg.SuppressBelow))
			}
			// The second round carries key masses only.
			contrib.trials[t] = foldTrial{tuples: counts}
		}(t)
	}
	cntWG.Wait()
	tuples, err := exchange(comm, cfg, contrib)
	if err != nil {
		return nil, nil, commError("tuple-count consolidation", err)
	}
	for t := 0; t < cfg.Trials; t++ {
		model, err := assembleModel(hists.trials[t].set, partResults[t].parts, partResults[t].collapsed, tuples.trials[t].tuples, cfg, t, batch)
		if err != nil {
			return nil, nil, fmt.Errorf("trial %d: %w", t, err)
		}
		models[t] = model
		assessments[t] = model.Assessment
	}

	best := quality.SelectBest(assessments)
	model := models[best]
	model.TrialAssessments = assessments
	labels := assignAll(proj, best*cfg.TargetDims, model, cfg.Workers)
	return model, labels, nil
}

type trialPartitions struct {
	parts     []partition.Result
	collapsed []bool
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
