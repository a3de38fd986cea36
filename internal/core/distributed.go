package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"keybin2/internal/histogram"
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
// count must be positive; a rank may hold zero rows.
func FitDistributed(comm *mpi.Comm, local *linalg.Matrix, cfg Config) (*Model, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
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
	// budget; all trials' sets then travel in one payload (length-prefixed
	// frames, appended in trial order so the bytes stay deterministic).
	sets := make([]*histogram.Set, cfg.Trials)
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
			sets[t] = set
		}(t)
	}
	binWG.Wait()
	for _, err := range binErrs {
		if err != nil {
			return nil, nil, err
		}
	}
	var packed []byte
	for _, set := range sets {
		packed = mpi.AppendBytesFrame(packed, set.Encode())
	}
	globalRaw, err := consolidate(comm, cfg, packed, combineFramedSets)
	if err != nil {
		return nil, nil, commError("histogram consolidation", err)
	}
	frames, err := mpi.SplitBytesFrames(globalRaw)
	if err != nil {
		return nil, nil, err
	}
	if len(frames) != cfg.Trials {
		return nil, nil, fmt.Errorf("core: %d histogram frames for %d trials", len(frames), cfg.Trials)
	}
	globalSets := make([]*histogram.Set, cfg.Trials)
	for t, f := range frames {
		if globalSets[t], err = histogram.DecodeSet(f); err != nil {
			return nil, nil, err
		}
	}

	// Every rank partitions the identical global histograms — the
	// partition step is deterministic, so computing it redundantly
	// everywhere is equivalent to (and cheaper than) a root partition +
	// cut broadcast. The same holds for label construction below, since
	// buildLabels orders tuples deterministically.
	models := make([]*Model, cfg.Trials)
	assessments := make([]quality.Assessment, cfg.Trials)
	partResults := make([]trialPartitions, cfg.Trials)
	localTuples := make([]tupleCounts, cfg.Trials)
	var cntWG sync.WaitGroup
	for t := 0; t < cfg.Trials; t++ {
		cntWG.Add(1)
		go func(t int) {
			defer cntWG.Done()
			parts, collapsed := partitionSet(globalSets[t], cfg)
			partResults[t] = trialPartitions{parts: parts, collapsed: collapsed}
			codec := newTupleCodec(parts, collapsed)
			local := countTuples(proj, t*cfg.TargetDims, globalSets[t], parts, collapsed, codec, perTrial)
			if cfg.SuppressBelow >= 2 {
				local.dropBelow(uint64(cfg.SuppressBelow))
			}
			localTuples[t] = local
		}(t)
	}
	cntWG.Wait()
	var tuplePacked []byte
	for t := 0; t < cfg.Trials; t++ {
		tuplePacked = mpi.AppendBytesFrame(tuplePacked, encodeTupleCounts(localTuples[t]))
	}
	globalTuplesRaw, err := consolidate(comm, cfg, tuplePacked, combineFramedTuples)
	if err != nil {
		return nil, nil, commError("tuple-count consolidation", err)
	}
	tupleFrames, err := mpi.SplitBytesFrames(globalTuplesRaw)
	if err != nil {
		return nil, nil, err
	}
	if len(tupleFrames) != cfg.Trials {
		return nil, nil, fmt.Errorf("core: %d tuple frames for %d trials", len(tupleFrames), cfg.Trials)
	}
	for t := 0; t < cfg.Trials; t++ {
		tuples, err := decodeTupleCounts(tupleFrames[t])
		if err != nil {
			return nil, nil, err
		}
		model, err := assembleModel(globalSets[t], partResults[t].parts, partResults[t].collapsed, tuples, cfg, t, batch)
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

// combineFramedSets merges two frame sequences of encoded histogram sets
// element-wise.
func combineFramedSets(acc, in []byte) ([]byte, error) {
	a, err := mpi.SplitBytesFrames(acc)
	if err != nil {
		return nil, err
	}
	b, err := mpi.SplitBytesFrames(in)
	if err != nil {
		return nil, err
	}
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: frame count mismatch %d vs %d", len(a), len(b))
	}
	var out []byte
	for i := range a {
		merged, err := histogram.CombineEncoded(a[i], b[i])
		if err != nil {
			return nil, err
		}
		out = mpi.AppendBytesFrame(out, merged)
	}
	return out, nil
}

// combineFramedTuples merges two frame sequences of encoded tuple-count
// maps element-wise. Every rank derives the same codec from the same global
// partitions, so paired frames always carry the same key tag.
func combineFramedTuples(acc, in []byte) ([]byte, error) {
	a, err := mpi.SplitBytesFrames(acc)
	if err != nil {
		return nil, err
	}
	b, err := mpi.SplitBytesFrames(in)
	if err != nil {
		return nil, err
	}
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: tuple frame count mismatch %d vs %d", len(a), len(b))
	}
	var out []byte
	for i := range a {
		ta, err := decodeTupleCounts(a[i])
		if err != nil {
			return nil, err
		}
		tb, err := decodeTupleCounts(b[i])
		if err != nil {
			return nil, err
		}
		merged, err := mergeTupleCounts(ta, tb)
		if err != nil {
			return nil, err
		}
		out = mpi.AppendBytesFrame(out, encodeTupleCounts(merged))
	}
	return out, nil
}

// String-keyed tuple map wire format: [nentries:u32] then per entry
// [keylen:u32][key bytes][mass:u64]. Entries are written in sorted key
// order so equal maps encode identically. The distributed fit wraps this
// (or the packed-uint64 form) behind a tag byte via encodeTupleCounts; the
// streaming sync path uses it directly for its packed-keys.Key sketches.
func encodeTuples(m map[string]uint64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	size := 4
	for _, k := range keys {
		size += 4 + len(k) + 8
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(len(keys)))
	off := 4
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(k)))
		off += 4
		copy(buf[off:], k)
		off += len(k)
		binary.LittleEndian.PutUint64(buf[off:], m[k])
		off += 8
	}
	return buf
}

func decodeTuples(b []byte) (map[string]uint64, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: truncated tuple map")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("core: truncated tuple entry header")
		}
		kl := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < kl+8 {
			return nil, fmt.Errorf("core: truncated tuple entry")
		}
		key := string(b[:kl])
		b = b[kl:]
		out[key] = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in tuple map", len(b))
	}
	return out, nil
}

func sortStrings(s []string) { sort.Strings(s) }
