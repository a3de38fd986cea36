package experiments

import (
	"fmt"

	"keybin2/internal/core"
	"keybin2/internal/eval"
	"keybin2/internal/kmeans"
	"keybin2/internal/linalg"
	"keybin2/internal/mafia"
	"keybin2/internal/mpi"
)

// Table1 reproduces the paper's Table 1: a fixed rank count, dimensionality
// swept over the ×4 ladder, comparing KeyBin2 (non-parametric) against
// kmeans++ (serial, given true k) and parallel-kmeans (distributed, given
// true k). Each design point aggregates Repeats independent runs.
func Table1(s Scale) []Row {
	var rows []Row
	for _, dims := range s.DimLadder {
		group := fmt.Sprintf("%d dimensions", dims)
		m := s.PointsPerProc * s.Procs

		keybin := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
			seed := s.Seed + int64(1000*run)
			spec := mixtureFor(dims, seed)
			shards, truth := sampleShards(spec, m, s.Procs, seed+1)
			labels, secs, _ := runKeyBin2Distributed(shards, s.Procs, core.Config{Seed: seed + 2, Workers: s.Workers})
			return eval.Evaluate(labels, truth, secs)
		})
		rows = append(rows, Row{Group: group, Method: "KeyBin2", Agg: keybin})

		kpp := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
			seed := s.Seed + int64(1000*run)
			spec := mixtureFor(dims, seed)
			shards, truth := sampleShards(spec, m, 1, seed+1)
			var res *kmeans.Result
			secs, err := timed(func() error {
				var err error
				res, err = kmeans.Fit(shards[0], kmeans.Config{K: spec.K(), Seed: seed + 2, Workers: s.Workers})
				return err
			})
			if err != nil {
				return eval.RunResult{}
			}
			return eval.Evaluate(res.Labels, truth, secs)
		})
		rows = append(rows, Row{Group: group, Method: "kmeans++", Agg: kpp})

		pk := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
			seed := s.Seed + int64(1000*run)
			spec := mixtureFor(dims, seed)
			shards, truth := sampleShards(spec, m, s.Procs, seed+1)
			labels, secs := runParallelKMeans(shards, s.Procs, kmeans.Config{K: spec.K(), Seed: seed + 2, Workers: s.Workers})
			return eval.Evaluate(labels, truth, secs)
		})
		rows = append(rows, Row{Group: group, Method: "parallel-kmeans", Agg: pk})

		// X-means (related work §2): the BIC-driven non-parametric k-means
		// — the fair baseline for KeyBin2's "no K required" claim.
		xm := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
			seed := s.Seed + int64(1000*run)
			spec := mixtureFor(dims, seed)
			shards, truth := sampleShards(spec, m, 1, seed+1)
			var res *kmeans.Result
			secs, err := timed(func() error {
				var err error
				res, err = kmeans.FitX(shards[0], kmeans.XConfig{Seed: seed + 2, Workers: s.Workers})
				return err
			})
			if err != nil {
				return eval.RunResult{}
			}
			return eval.Evaluate(res.Labels, truth, secs)
		})
		rows = append(rows, Row{Group: group, Method: "xmeans", Agg: xm})

		// The predecessor: KeyBin1 behaviour (no random projection, raw
		// per-dimension binning). At low dimensionality it is competitive;
		// as dimensionality grows the key-tuple space fragments and it
		// collapses — the limitation §1 motivates KeyBin2 with.
		kb1 := eval.Repeat(s.Repeats, func(run int) eval.RunResult {
			seed := s.Seed + int64(1000*run)
			spec := mixtureFor(dims, seed)
			shards, truth := sampleShards(spec, m, s.Procs, seed+1)
			labels, secs, _ := runKeyBin2Distributed(shards, s.Procs, core.Config{
				Seed: seed + 2, Workers: s.Workers, NoProjection: true,
			})
			return eval.Evaluate(labels, truth, secs)
		})
		rows = append(rows, Row{Group: group, Method: "keybin1 (no proj.)", Agg: kb1})

		// The paper "also attempted a comparison with GPUMAFIA, however
		// [it] was unable to converge under our particular setup" (§4).
		// We run our MAFIA-style comparator once per design point with a
		// work budget; on this workload the candidate lattice explodes and
		// it reports the same outcome.
		rows = append(rows, mafiaRow(group, dims, m, s))
	}
	return rows
}

// mafiaRow attempts one MAFIA fit and reports either its metrics or the
// non-convergence the paper observed.
func mafiaRow(group string, dims, m int, s Scale) Row {
	seed := s.Seed
	spec := mixtureFor(dims, seed)
	shards, truth := sampleShards(spec, m, 1, seed+1)
	var res *mafia.Result
	secs, err := timed(func() error {
		var ferr error
		res, ferr = mafia.Fit(shards[0], mafia.Config{MaxCandidates: 200000})
		return ferr
	})
	if err != nil {
		return Row{Group: group, Method: "mafia", Skipped: true,
			Note: fmt.Sprintf("— did not converge (%v)", err)}
	}
	run := eval.Evaluate(res.Labels, truth, secs)
	return Row{Group: group, Method: "mafia", Agg: eval.AggregateRuns([]eval.RunResult{run})}
}

// rankTraffic is what one rank sent during a fit, averaged over the ranks.
type rankTraffic struct{ bytes, msgs float64 }

// runKeyBin2Distributed executes a distributed KeyBin2 fit over in-process
// ranks and returns the stitched global labels, the slowest rank's wall
// time (the completion time of the collective fit), and the mean traffic
// per rank.
func runKeyBin2Distributed(shards []*linalg.Matrix, ranks int, cfg core.Config) ([]int, float64, rankTraffic) {
	type out struct {
		labels      []int
		secs        float64
		bytes, msgs int64
	}
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (out, error) {
		var labels []int
		secs, err := timed(func() error {
			var err error
			_, labels, err = core.FitDistributed(c, shards[c.Rank()], cfg)
			return err
		})
		return out{labels: labels, secs: secs, bytes: c.Stats().Bytes(), msgs: c.Stats().Messages()}, err
	})
	if err != nil {
		return nil, 0, rankTraffic{}
	}
	var labels []int
	var secs float64
	var sent rankTraffic
	for _, r := range results {
		labels = append(labels, r.labels...)
		if r.secs > secs {
			secs = r.secs
		}
		sent.bytes += float64(r.bytes) / float64(ranks)
		sent.msgs += float64(r.msgs) / float64(ranks)
	}
	return labels, secs, sent
}

// runParallelKMeans is the distributed-Lloyd analogue of
// runKeyBin2Distributed.
func runParallelKMeans(shards []*linalg.Matrix, ranks int, cfg kmeans.Config) ([]int, float64) {
	type out struct {
		labels []int
		secs   float64
	}
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (out, error) {
		var labels []int
		secs, err := timed(func() error {
			res, err := kmeans.FitDistributed(c, shards[c.Rank()], cfg)
			if err != nil {
				return err
			}
			labels = res.Labels
			return nil
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
