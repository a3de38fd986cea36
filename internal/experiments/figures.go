package experiments

import (
	"fmt"
	"math"

	"keybin2/internal/core"
	"keybin2/internal/dbscan"
	"keybin2/internal/eval"
	"keybin2/internal/histogram"
	"keybin2/internal/kmeans"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/projection"
	"keybin2/internal/synth"
	"keybin2/internal/trajectory"
	"keybin2/internal/xrand"
)

// Figure1Row describes one panel of Figure 1: how a random projection of
// the correlated 2-D workload changes the per-dimension class overlap.
// Panel "original" is the identity projection (KeyBin1's view).
type Figure1Row struct {
	Panel string
	// OverlapDim0/1 is the histogram overlap coefficient of the two true
	// classes along each projected dimension (1 = indistinguishable,
	// 0 = fully separated).
	OverlapDim0, OverlapDim1 float64
	// Separable reports whether the KeyBin2 partitioner finds a cut in at
	// least one dimension.
	Separable bool
}

// Figure1 reproduces the Figure 1 demonstration: the original correlated
// clusters overlap in both axis projections (binning alone cannot split
// them), while some random rotations decorrelate the data and others make
// it worse.
func Figure1(s Scale) []Figure1Row {
	data, truth := synth.Correlated2D(4000, 3, xrand.New(s.Seed))
	rows := []Figure1Row{figure1Panel("original (a)", data, truth)}
	for p := 0; p < 5; p++ {
		mat, err := projection.New(projection.Gaussian, 2, 2, xrand.New(s.Seed).SplitN("fig1", p))
		if err != nil {
			continue
		}
		proj, err := linalg.Mul(nil, data, mat)
		if err != nil {
			continue
		}
		rows = append(rows, figure1Panel(fmt.Sprintf("projection (%c)", 'b'+p), proj, truth))
	}
	return rows
}

func figure1Panel(name string, pts *linalg.Matrix, truth []int) Figure1Row {
	row := Figure1Row{Panel: name}
	overlaps := [2]float64{}
	for j := 0; j < 2; j++ {
		overlaps[j] = classOverlap(pts, truth, j)
	}
	row.OverlapDim0, row.OverlapDim1 = overlaps[0], overlaps[1]
	for j := 0; j < 2; j++ {
		col := pts.Col(j)
		lo, hi := linalg.MinMax(col)
		h := histogram.New(lo, hi, 7)
		for _, v := range col {
			h.Add(v)
		}
		if res := partition.Partition(h, partition.DiscreteOpt); len(res.Cuts) > 0 {
			row.Separable = true
		}
	}
	return row
}

// classOverlap is the overlap coefficient of the two classes' histograms
// along dimension j: Σ_b min(p0(b), p1(b)).
func classOverlap(pts *linalg.Matrix, truth []int, j int) float64 {
	col := pts.Col(j)
	lo, hi := linalg.MinMax(col)
	h0 := histogram.New(lo, hi, 6)
	h1 := histogram.New(lo, hi, 6)
	for i, v := range col {
		if truth[i] == 0 {
			h0.Add(v)
		} else {
			h1.Add(v)
		}
	}
	d0, d1 := h0.Densities(), h1.Densities()
	var ov float64
	for b := range d0 {
		ov += math.Min(d0[b], d1[b])
	}
	return ov
}

// Figure2Result captures the Figure 2 demonstration: the per-dimension
// histograms and partitions of the six-cluster 2-D layout, with the
// histogram-space CH assessment of every bootstrap trial.
type Figure2Result struct {
	// CutsDim0 and CutsDim1 are the winning trial's cut positions in data
	// coordinates.
	CutsDim0, CutsDim1 []float64
	// Clusters is the number of global clusters found (paper's grid shows
	// 6).
	Clusters int
	// TrialCH lists every trial's CH index; the winner is max.
	TrialCH []float64
	// WinnerTrial indexes TrialCH.
	WinnerTrial int
	// F1 is the pairwise F1 against the generated truth.
	F1 float64
}

// Figure2 reproduces the Figure 2 walkthrough on the six-cluster layout.
func Figure2(s Scale) (Figure2Result, error) {
	data, truth := synth.Six2D(6000, xrand.New(s.Seed+10))
	// Five bootstrap trials, as in the algorithm's default. (With many more
	// 2-D→2-D trials the CH selection can prefer a pathological rotation
	// that overlaps cluster pairs *exactly* — tight marginals score well;
	// EXPERIMENTS.md discusses this known limitation, which the paper
	// hints at when noting the CH index's effectiveness decreases.)
	cfg := core.Config{Seed: s.Seed + 11, Trials: 5, TargetDims: 2, Workers: s.Workers}
	model, labels, err := core.Fit(data, cfg)
	if err != nil {
		return Figure2Result{}, err
	}
	var res Figure2Result
	res.Clusters = model.K()
	res.WinnerTrial = model.Trial
	_, _, res.F1 = eval.PrecisionRecallF1(labels, truth)
	for j, p := range model.Parts {
		h := model.Set.Dims[j]
		var cuts []float64
		for _, c := range p.Cuts {
			cuts = append(cuts, h.Center(c)+h.BinWidth()/2)
		}
		if j == 0 {
			res.CutsDim0 = cuts
		} else {
			res.CutsDim1 = cuts
		}
	}
	for _, a := range model.TrialAssessments {
		res.TrialCH = append(res.TrialCH, a.CH)
	}
	return res, nil
}

// Figure3Row is one trajectory's clustering cost under each method.
type Figure3Row struct {
	Name             string
	Frames, Residues int
	KeyBin2Sec       float64
	KMeansSec        float64
	DBSCANSec        float64
	// KeyBin2PerFrame is seconds per frame (the paper reports ~0.0004).
	KeyBin2PerFrame float64
	// Agreement is KeyBin2's fingerprint/planted-phase NMI.
	Agreement float64
}

// Figure3 reproduces the execution-time comparison over the 31-trajectory
// suite: KeyBin2 vs k-means (k = #phases given) vs DBSCAN on the
// secondary-structure feature space. maxTrajectories > 0 limits the run
// (tests use a handful; the full figure uses all 31).
func Figure3(s Scale, maxTrajectories int) ([]Figure3Row, error) {
	specs := trajectory.Suite(s.Seed + 20)
	if maxTrajectories > 0 && maxTrajectories < len(specs) {
		specs = specs[:maxTrajectories]
	}
	var rows []Figure3Row
	for _, spec := range specs {
		if s.TrajectoryFrameDiv > 1 {
			spec.Frames /= s.TrajectoryFrameDiv
			if spec.Frames < 600 {
				spec.Frames = 600
			}
		}
		tr, err := trajectory.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		feats := tr.Features()
		row := Figure3Row{Name: spec.Name, Frames: spec.Frames, Residues: spec.Residues}

		var labels []int
		row.KeyBin2Sec, err = timed(func() error {
			_, labels, err = core.Fit(feats, core.Config{Seed: spec.Seed, Workers: s.Workers})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s keybin2: %w", spec.Name, err)
		}
		row.KeyBin2PerFrame = row.KeyBin2Sec / float64(spec.Frames)
		row.Agreement = trajectory.NewFingerprint(labels, 25).Agreement(tr.Phase)

		row.KMeansSec, err = timed(func() error {
			_, err := kmeans.Fit(feats, kmeans.Config{K: maxInt(2, spec.Phases), Seed: spec.Seed, Workers: s.Workers})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s kmeans: %w", spec.Name, err)
		}

		row.DBSCANSec, err = timed(func() error {
			// ε on SS-code space: codes differ by ≥1 per changed residue;
			// allow ~5% of residues to differ within a cluster.
			eps := math.Sqrt(float64(spec.Residues) * 0.05)
			if eps < 1 {
				eps = 1
			}
			_, err := dbscan.FitParallel(feats, dbscan.Config{Eps: eps, MinPts: 5, Workers: s.Workers})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s dbscan: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Figure4Result is the qualitative validation of §5.2 on trajectory 1a70.
type Figure4Result struct {
	Frames int
	// StableSegments are the HDR-derived meta-stable phases (the paper's
	// rectangles).
	StableSegments []trajectory.Segment
	// FingerprintSegments are KeyBin2's cluster fingerprints' stable runs.
	FingerprintSegments []trajectory.Segment
	// FingerprintChanges are the fingerprint change points.
	FingerprintChanges []int
	// AgreementWithHDR is the NMI between fingerprint labels and HDR
	// stable labels on stable frames.
	AgreementWithHDR float64
	// AgreementWithTruth is the NMI against the planted phases.
	AgreementWithTruth float64
}

// Figure4 reproduces the Figure 4 pipeline: cluster trajectory 1a70 with
// KeyBin2, derive fingerprints, run the offline HDR stability validation,
// and measure how the two segmentations align.
func Figure4(s Scale) (Figure4Result, error) {
	specs := trajectory.Suite(s.Seed + 20)
	spec := specs[0] // "1a70", 10,000 frames, 6 phases
	if s.TrajectoryFrameDiv > 1 {
		spec.Frames /= s.TrajectoryFrameDiv
		if spec.Frames < 1000 {
			spec.Frames = 1000
		}
	}
	tr, err := trajectory.Generate(spec)
	if err != nil {
		return Figure4Result{}, err
	}

	// KeyBin2 fingerprints.
	feats := tr.Features()
	_, labels, err := core.Fit(feats, core.Config{Seed: s.Seed + 21, Workers: s.Workers})
	if err != nil {
		return Figure4Result{}, err
	}
	fp := trajectory.NewFingerprint(labels, 25)

	// Offline probabilistic validation (eqs. 3–4).
	reps, err := trajectory.SampleRepresentatives(tr.Angles, 2*spec.Phases, s.Seed+22)
	if err != nil {
		return Figure4Result{}, err
	}
	groups := trajectory.GroupRepresentatives(tr.Angles, reps, 0.5)
	probs := trajectory.CollapseColumns(trajectory.StabilityProbabilities(tr.Angles, reps), groups)
	scores := trajectory.StabilityScores(probs, 100, 0.7)
	stable := trajectory.StableLabels(scores, 0.1)
	// Mode-smooth before segmenting to drop single-frame flicker.
	smoothedStable := trajectory.NewFingerprint(stable, 25).Labels

	res := Figure4Result{
		Frames:              spec.Frames,
		StableSegments:      trajectory.Segments(smoothedStable, 50),
		FingerprintSegments: fp.Segments(50),
		FingerprintChanges:  fp.Changes,
		AgreementWithHDR:    fp.Agreement(stable),
		AgreementWithTruth:  fp.Agreement(tr.Phase),
	}
	return res, nil
}

// Table3 returns the trajectory-suite characteristics (paper Table 3).
func Table3(s Scale) trajectory.SuiteStats {
	return trajectory.Stats(trajectory.Suite(s.Seed + 20))
}
