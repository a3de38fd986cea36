package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"keybin2/internal/core"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/xrand"
)

// HeadlineResult is one KeyBin2 fit at the paper's headline design point.
type HeadlineResult struct {
	Ranks, PointsPerRank, Dims int
	// Run holds precision, recall, F1 and the slowest rank's fit time.
	Run eval.RunResult
	// TrafficBytes is the payload all ranks sent during the fit.
	TrafficBytes int64
}

// Headline runs KeyBin2 alone at the paper's headline design point:
// s.Procs ranks × s.PointsPerProc points at the last entry of s.DimLadder.
// At Paper() scale with 40,000 points per rank that is 16 × 40,000 × 1280,
// half the paper's per-rank shard (the paper's full dataset is 13 GB).
// The mixture is Tables 1–2's without the background noise, and rank r
// samples its own shard from seed+1+r.
func Headline(s Scale) (HeadlineResult, error) {
	dims := s.DimLadder[len(s.DimLadder)-1]
	res := HeadlineResult{Ranks: s.Procs, PointsPerRank: s.PointsPerProc, Dims: dims}
	spec := mixtureFor(dims, s.Seed)
	shards := make([]*linalg.Matrix, s.Procs)
	var truth []int
	for r := range shards {
		data, t := spec.Sample(s.PointsPerProc, xrand.New(s.Seed+1+int64(r)))
		shards[r], truth = data, append(truth, t...)
	}
	labels, secs, sent := runKeyBin2Distributed(shards, s.Procs, core.Config{Seed: s.Seed + 98, Workers: s.Workers})
	if labels == nil {
		return res, errors.New("headline: the distributed fit failed")
	}
	res.Run = eval.Evaluate(labels, truth, secs)
	res.TrafficBytes = int64(math.Round(sent.bytes * float64(s.Procs)))
	return res, nil
}

// RenderHeadline renders the headline run.
func RenderHeadline(r HeadlineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline: KeyBin2 on %d ranks × %d points × %d dims\n", r.Ranks, r.PointsPerRank, r.Dims)
	fmt.Fprintf(&b, "time %.3f s  precision %.3f  recall %.3f  f1 %.3f  traffic %d KiB total\n",
		r.Run.Seconds, r.Run.Precision, r.Run.Recall, r.Run.F1, r.TrafficBytes/1024)
	return b.String()
}
