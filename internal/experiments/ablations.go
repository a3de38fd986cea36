package experiments

import (
	"fmt"

	"keybin2/internal/core"
	"keybin2/internal/eval"
	"keybin2/internal/histogram"
	"keybin2/internal/mpi"
	"keybin2/internal/partition"
	"keybin2/internal/projection"
	"keybin2/internal/xrand"
)

// AblationARow compares the §3.2 partitioners on a 1-D density with a
// known number of modes at a given noise level.
type AblationARow struct {
	Method     string
	Modes      int
	NoiseFrac  float64
	CutsFound  float64 // mean over repeats; truth is Modes-1
	CutErrBins float64 // mean |found−true| position error of matched cuts
	Seconds    float64
}

// AblationA evaluates the discrete-optimization partitioner against the
// KDE comparator and KeyBin1's density threshold across mode counts and
// noise levels — the design choice §3.2 argues for.
func AblationA(s Scale) []AblationARow {
	methods := []partition.Method{partition.DiscreteOpt, partition.KDE, partition.Threshold}
	var rows []AblationARow
	for _, modes := range []int{1, 2, 3, 5} {
		for _, noise := range []float64{0, 0.1, 0.3} {
			for _, method := range methods {
				row := AblationARow{Method: method.String(), Modes: modes, NoiseFrac: noise}
				for rep := 0; rep < s.Repeats; rep++ {
					rng := xrand.New(s.Seed + int64(100*rep))
					h := histogram.New(0, 100, 7)
					centers := make([]float64, modes)
					for c := range centers {
						centers[c] = 100 * (float64(c) + 0.5) / float64(modes)
					}
					nSignal := 20000
					for i := 0; i < nSignal; i++ {
						h.Add(rng.Gaussian(centers[i%modes], 100/float64(modes)/6))
					}
					for i := 0; i < int(noise*float64(nSignal)); i++ {
						h.Add(rng.Uniform(0, 100))
					}
					var res partition.Result
					secs, _ := timed(func() error {
						res = partition.Partition(h, method)
						return nil
					})
					row.Seconds += secs / float64(s.Repeats)
					row.CutsFound += float64(len(res.Cuts)) / float64(s.Repeats)
					row.CutErrBins += cutError(res.Cuts, centers, h) / float64(s.Repeats)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// cutError matches each true valley (midpoint between adjacent mode
// centers) with the nearest found cut and averages the distance in bins;
// unmatched valleys count as half the histogram width.
func cutError(cuts []int, centers []float64, h *histogram.Hist) float64 {
	if len(centers) < 2 {
		return float64(len(cuts)) // any cut on unimodal data is pure error
	}
	var total float64
	for c := 0; c+1 < len(centers); c++ {
		valley := (centers[c] + centers[c+1]) / 2
		valleyBin := h.Bin(valley)
		best := float64(h.Bins()) / 2
		for _, cut := range cuts {
			d := float64(cut - valleyBin)
			if d < 0 {
				d = -d
			}
			if d < best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(centers)-1)
}

// AblationBRow reports accuracy versus the target-dimension rule and the
// number of bootstrap trials.
type AblationBRow struct {
	Rule       string
	TargetDims int
	Trials     int
	F1         float64
	F1CI       float64
	Seconds    float64
}

// AblationB sweeps N_rp (the paper's 1.5·log₂N rule, half of it, double
// it, and no projection) and the bootstrap budget t on the standard
// mixture workload — the design choice §3.1 argues for.
func AblationB(s Scale) []AblationBRow {
	dims := 320
	m := s.PointsPerProc * 2
	paperRule := projection.TargetDims(dims)
	type variant struct {
		rule string
		nrp  int
	}
	variants := []variant{
		{"half-rule", maxInt(2, paperRule/2)},
		{fmt.Sprintf("paper-rule (1.5·log₂N = %d)", paperRule), paperRule},
		{"double-rule", 2 * paperRule},
		{"no-projection", 0},
	}
	var rows []AblationBRow
	for _, v := range variants {
		for _, trials := range []int{1, 3, 5} {
			if v.nrp == 0 && trials > 1 {
				continue // no projection has nothing to bootstrap
			}
			results := make([]eval.RunResult, s.Repeats)
			for rep := 0; rep < s.Repeats; rep++ {
				seed := s.Seed + int64(500*rep)
				spec := mixtureFor(dims, seed)
				data, truth := spec.Sample(m, xrand.New(seed+1))
				cfg := core.Config{Seed: seed + 2, Trials: trials, Workers: s.Workers}
				if v.nrp == 0 {
					cfg.NoProjection = true
				} else {
					cfg.TargetDims = v.nrp
				}
				var labels []int
				secs, err := timed(func() error {
					var err error
					_, labels, err = core.Fit(data, cfg)
					return err
				})
				if err != nil {
					continue
				}
				results[rep] = eval.Evaluate(labels, truth, secs)
			}
			agg := eval.AggregateRuns(results)
			rows = append(rows, AblationBRow{
				Rule: v.rule, TargetDims: v.nrp, Trials: trials,
				F1: agg.F1, F1CI: agg.F1CI, Seconds: agg.Seconds,
			})
		}
	}
	return rows
}

// AblationCRow reports communication volume per rank for one consolidation
// topology at one world size.
type AblationCRow struct {
	Ranks    int
	Topology string
	// BytesPerRank is the mean payload bytes each rank sent during the
	// whole fit.
	BytesPerRank float64
	// MsgsPerRank is the mean message count.
	MsgsPerRank float64
	// PredictedBytes is the paper's O(2·K·N_rp·B) histogram-volume claim
	// evaluated for this configuration (histogram payloads only).
	PredictedBytes float64
	Seconds        float64
	F1             float64
}

// AblationC measures tree vs ring histogram consolidation and checks the
// paper's communication-volume claim (§3.4): traffic stays within a small
// factor of 2·K·N_rp·B histogram entries regardless of the point count.
func AblationC(s Scale) []AblationCRow {
	dims := 80
	var rows []AblationCRow
	for _, ranks := range s.ProcLadder {
		for _, ring := range []bool{false, true} {
			topo := "tree"
			if ring {
				topo = "ring"
			}
			seed := s.Seed + int64(10*ranks)
			spec := mixtureFor(dims, seed)
			m := s.PointsPerProc * ranks
			shards, truth := sampleShards(spec, m, ranks, seed+1)
			type out struct {
				labels []int
				bytes  int64
				msgs   int64
				secs   float64
			}
			results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (out, error) {
				var labels []int
				secs, err := timed(func() error {
					var err error
					_, labels, err = core.FitDistributed(c, shards[c.Rank()], core.Config{
						Seed: seed + 2, Ring: ring, Workers: s.Workers,
					})
					return err
				})
				return out{labels: labels, bytes: c.Stats().Bytes(), msgs: c.Stats().Messages(), secs: secs}, err
			})
			if err != nil {
				continue
			}
			row := AblationCRow{Ranks: ranks, Topology: topo}
			var pred []int
			for _, r := range results {
				pred = append(pred, r.labels...)
				row.BytesPerRank += float64(r.bytes) / float64(ranks)
				row.MsgsPerRank += float64(r.msgs) / float64(ranks)
				if r.secs > row.Seconds {
					row.Seconds = r.secs
				}
			}
			_, _, row.F1 = eval.PrecisionRecallF1(pred, truth)
			row.PredictedBytes = histogramTraffic(dims, m)
			rows = append(rows, row)
		}
	}
	return rows
}

// histogramTraffic is the paper's communication-volume claim per rank:
// 2·K·N_rp·B histogram entries (8 bytes each) over K ranks, per bootstrap
// trial (default 5). It depends on the point count only through the bin
// count B.
func histogramTraffic(dims, m int) float64 {
	return 2 * float64(projection.TargetDims(dims)) * float64(histogramBins(m)) * 8 * 5
}

// histogramBins mirrors core.DefaultDepth's bin count for the claim check.
func histogramBins(m int) int {
	l2 := 0
	for v := m; v > 1; v >>= 1 {
		l2++
	}
	target := l2 * l2
	bins := 1
	for bins < target {
		bins <<= 1
	}
	if bins < 8 {
		bins = 8
	}
	if bins > 1024 {
		bins = 1024
	}
	return bins
}
