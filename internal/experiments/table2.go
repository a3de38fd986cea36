package experiments

import (
	"fmt"
	"math"

	"keybin2/internal/core"
	"keybin2/internal/dbscan"
	"keybin2/internal/eval"
	"keybin2/internal/kmeans"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/xrand"
)

// Table2 reproduces the paper's Table 2: dimensionality fixed high, rank
// count doubling from 1 to 16 with a constant per-rank shard (weak
// scaling). Methods: KeyBin2, parallel-kmeans (true k given), and
// PDSDBSCAN (tuned ε/minPts). The paper's PDSDBSCAN rows beyond one
// process are "—" (it stopped producing results); this harness likewise
// skips them by default, or — with Scale.RunDistributedDBSCAN — fills them
// using our own fully distributed PDSDBSCAN (dbscan.FitDistributed),
// measuring the cost explosion the paper could only leave blank.
func Table2(s Scale) []Row {
	var rows []Row
	dims := s.Table2Dims
	for _, procs := range s.ProcLadder {
		m := s.PointsPerProc * procs
		group := fmt.Sprintf("%d processes (%d points)", procs, m)

		var sent rankTraffic // mean over the repeats
		keybin := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
			seed := s.Seed + int64(1000*run)
			spec := mixtureFor(dims, seed)
			shards, truth := sampleShards(spec, m, procs, seed+1)
			labels, secs, t := runKeyBin2Distributed(shards, procs, core.Config{Seed: seed + 2, Workers: s.Workers})
			sent.bytes += t.bytes / float64(s.Repeats)
			sent.msgs += t.msgs / float64(s.Repeats)
			return eval.Evaluate(labels, truth, secs)
		})
		rows = append(rows, Row{Group: group, Method: "KeyBin2", Agg: keybin, BytesPerRank: sent.bytes, MsgsPerRank: sent.msgs})

		pk := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
			seed := s.Seed + int64(1000*run)
			spec := mixtureFor(dims, seed)
			shards, truth := sampleShards(spec, m, procs, seed+1)
			labels, secs := runParallelKMeans(shards, procs, kmeans.Config{K: spec.K(), Seed: seed + 2, Workers: s.Workers})
			return eval.Evaluate(labels, truth, secs)
		})
		rows = append(rows, Row{Group: group, Method: "parallel-kmeans", Agg: pk})

		switch {
		case procs == 1:
			db := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
				seed := s.Seed + int64(1000*run)
				spec := mixtureFor(dims, seed)
				shards, truth := sampleShards(spec, m, 1, seed+1)
				eps := tuneEps(shards[0], seed+3)
				var labels []int
				secs, err := timed(func() error {
					var err error
					labels, err = dbscan.FitParallel(shards[0], dbscan.Config{Eps: eps, MinPts: 5, Workers: s.Workers})
					return err
				})
				if err != nil {
					return eval.RunResult{}
				}
				return eval.Evaluate(labels, truth, secs)
			})
			rows = append(rows, Row{Group: group, Method: "pdsdbscan", Agg: db})
		case s.RunDistributedDBSCAN:
			db := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
				seed := s.Seed + int64(1000*run)
				spec := mixtureFor(dims, seed)
				shards, truth := sampleShards(spec, m, procs, seed+1)
				eps := tuneEps(shards[0], seed+3)
				labels, secs := runDistributedDBSCAN(shards, procs, dbscan.Config{Eps: eps, MinPts: 5, Workers: s.Workers})
				return eval.Evaluate(labels, truth, secs)
			})
			rows = append(rows, Row{Group: group, Method: "pdsdbscan (ours)", Agg: db})
		default:
			rows = append(rows, Row{Group: group, Method: "pdsdbscan", Skipped: true,
				Note: "— (as in the paper: no results beyond 1 process at this dimensionality; rerun with -dbscan-all)"})
		}
	}
	return rows
}

// runDistributedDBSCAN mirrors runKeyBin2Distributed for the distributed
// PDSDBSCAN comparator.
func runDistributedDBSCAN(shards []*linalg.Matrix, ranks int, cfg dbscan.Config) ([]int, float64) {
	type out struct {
		labels []int
		secs   float64
	}
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (out, error) {
		var labels []int
		secs, err := timed(func() error {
			var err error
			labels, err = dbscan.FitDistributed(c, shards[c.Rank()], cfg)
			return err
		})
		return out{labels: labels, secs: secs}, err
	})
	if err != nil {
		return nil, 0
	}
	var labels []int
	var secs float64
	for _, r := range results {
		labels = append(labels, r.labels...)
		if r.secs > secs {
			secs = r.secs
		}
	}
	return labels, secs
}

// tuneEps estimates a near-optimal DBSCAN radius: twice the median
// nearest-neighbor distance of a point sample. The paper reports providing
// PDSDBSCAN its "optimal ε and minPoint parameters"; this is the standard
// way to obtain them when the generator is known.
func tuneEps(data *linalg.Matrix, seed int64) float64 {
	rng := xrand.New(seed)
	sample := 300
	if sample > data.Rows {
		sample = data.Rows
	}
	idx := make([]int, sample)
	for i := range idx {
		idx[i] = rng.Intn(data.Rows)
	}
	nn := make([]float64, 0, sample)
	for _, i := range idx {
		best := -1.0
		for _, j := range idx {
			if i == j {
				continue
			}
			d := linalg.SqDist(data.Row(i), data.Row(j))
			if best < 0 || d < best {
				best = d
			}
		}
		if best > 0 {
			nn = append(nn, best)
		}
	}
	if len(nn) == 0 {
		return 1
	}
	// median of squared NN distances → eps = 2·sqrt(median)
	for i := 1; i < len(nn); i++ {
		for j := i; j > 0 && nn[j] < nn[j-1]; j-- {
			nn[j], nn[j-1] = nn[j-1], nn[j]
		}
	}
	med := nn[len(nn)/2]
	return 2 * math.Sqrt(med)
}
