package main

import (
	"time"

	"keybin2/internal/core"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// The stream the serving workloads cluster is the one BENCH_keybin2.json
// was taken on, so the two ledgers can be read against each other: a
// 4-component mixture over 16 dimensions, batches of 1024 points. The
// mixture itself is part of the workload and never changes; -seed draws
// the points from it.
const (
	streamDims  = 16
	streamComps = 4
	mixtureSeed = 1 // BENCH_keybin2.json's seed
	streamSeed  = 4 // and its stream Config.Seed (seed + 3)
)

// sizes scales a run. full is what BENCHMARK.json measures; smoke is
// the same program at sizes the tests can afford.
type sizes struct {
	batchPts    int // points per ingest batch
	poolBatches int // distinct pre-encoded batches a round cycles through
	// roundBatches is the fixed size of one saturation round, per
	// serving workload, chosen so a round lasts at least a second on the
	// 2-core reference box.
	roundBatches  map[string]int
	warmRounds    int // untimed rounds at the end of every set-up
	minRounds     int // timed rounds are never fewer than this
	setups        int // set-up is repeated this often; setup_s is the median
	queryPts      int // points per /label query
	queryPool     int // distinct query batches
	probePts      int // held-out points f1 is computed on
	ackRate       float64
	labelRate     float64
	mergeEvery    time.Duration // fleet_routed, paced phase
	ladderBatches int           // batches pushed through each rung of the layer ladder

	fitRows, fitDims, fitComps int
}

var fullSizes = sizes{
	batchPts:    1024,
	poolBatches: 512,
	roundBatches: map[string]int{
		"ingest_plain":    2048,
		"ingest_wal_read": 1792,
		"fleet_routed":    2048,
	},
	warmRounds: 2, minRounds: 9, setups: 3,
	queryPts: 64, queryPool: 64, probePts: 20000,
	ackRate: 500, labelRate: 250,
	mergeEvery:    time.Second,
	ladderBatches: 256,
	fitRows:       250000, fitDims: 64, fitComps: 8,
}

var smokeSizes = sizes{
	batchPts:    1024,
	poolBatches: 16,
	roundBatches: map[string]int{
		"ingest_plain":    16,
		"ingest_wal_read": 16,
		"fleet_routed":    16,
	},
	warmRounds: 1, minRounds: 3, setups: 1,
	queryPts: 64, queryPool: 8, probePts: 4000,
	ackRate: 200, labelRate: 100,
	mergeEvery:    100 * time.Millisecond,
	ladderBatches: 12,
	fitRows:       20000, fitDims: 64, fitComps: 8,
}

// streamConfig is the daemon's (and the in-process stream's) clustering
// configuration: refits recur every 5000 points, so every round and
// every second of a paced phase holds many.
func streamConfig() core.StreamConfig {
	ranges := make([][2]float64, streamDims)
	for i := range ranges {
		ranges[i] = [2]float64{-12, 12}
	}
	return core.StreamConfig{
		Config:    core.Config{Seed: streamSeed, Trials: 3},
		Dims:      streamDims,
		RawRanges: ranges,
		Period:    5000,
	}
}

// rawBatch is one ingest batch in KB2B wire form.
type rawBatch struct {
	raw  []byte
	rows int
}

// streamInputs is everything a serving run feeds the system, generated
// and encoded before any clock starts.
type streamInputs struct {
	pool    []rawBatch
	queries []*linalg.Matrix
	probe   *linalg.Matrix
	truth   []int
}

// genStreamInputs draws the run's inputs from seed. Each part has its
// own split of the seed, so changing one size does not shift the others.
func genStreamInputs(sz sizes, seed int64) streamInputs {
	spec := synth.AutoMixture(streamComps, streamDims, 6, 1, xrand.New(mixtureSeed))
	root := xrand.New(seed)
	var in streamInputs
	rng := root.Split("pool")
	for i := 0; i < sz.poolBatches; i++ {
		m, _ := spec.Sample(sz.batchPts, rng)
		in.pool = append(in.pool, rawBatch{raw: server.EncodeBatch(m), rows: m.Rows})
	}
	rng = root.Split("queries")
	for i := 0; i < sz.queryPool; i++ {
		q, _ := spec.Sample(sz.queryPts, rng)
		in.queries = append(in.queries, q)
	}
	in.probe, in.truth = spec.Sample(sz.probePts, root.Split("probe"))
	return in
}

// decodePool turns wire batches back into matrices, for the rungs that
// drive core directly.
func decodePool(pool []rawBatch) ([]*linalg.Matrix, error) {
	out := make([]*linalg.Matrix, len(pool))
	for i := range out {
		m, err := server.DecodeBatch(pool[i].raw, 0)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// fitInputs is the batch workload's data: one matrix to cluster, split
// in two halves for the two ranks, and a held-out probe set.
type fitInputs struct {
	data   *linalg.Matrix
	halves [2]*linalg.Matrix
	probe  *linalg.Matrix
	truth  []int
}

func genFitInputs(sz sizes, seed int64) fitInputs {
	spec := synth.AutoMixture(sz.fitComps, sz.fitDims, 6, 1, xrand.New(mixtureSeed))
	root := xrand.New(seed)
	var in fitInputs
	in.data, _ = spec.Sample(sz.fitRows, root.Split("fit"))
	half := sz.fitRows / 2
	in.halves[0] = &linalg.Matrix{Rows: half, Cols: sz.fitDims, Data: in.data.Data[:half*sz.fitDims]}
	in.halves[1] = &linalg.Matrix{Rows: sz.fitRows - half, Cols: sz.fitDims, Data: in.data.Data[half*sz.fitDims:]}
	in.probe, in.truth = spec.Sample(sz.probePts, root.Split("probe"))
	return in
}
