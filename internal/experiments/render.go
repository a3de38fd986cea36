package experiments

import (
	"fmt"
	"strings"

	"keybin2/internal/trajectory"
)

// RenderTable renders Table 1/2 rows in the paper's format, grouping by
// design point.
func RenderTable(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s %-16s %-14s %-14s %-14s %-16s\n",
		"Method", "Clusters", "Recall", "Precision", "F1 score", "Time (sec)")
	var group string
	for _, r := range rows {
		if r.Group != group {
			group = r.Group
			fmt.Fprintf(&b, "-- %s --\n", group)
		}
		if r.Skipped {
			fmt.Fprintf(&b, "%-18s %s\n", r.Method, r.Note)
			continue
		}
		a := r.Agg
		fmt.Fprintf(&b, "%-18s %-16s %-14s %-14s %-14s %-16s",
			r.Method,
			pm(a.Clusters, a.ClustersCI, 2),
			pm(a.Recall, a.RecCI, 3),
			pm(a.Precision, a.PrecCI, 3),
			pm(a.F1, a.F1CI, 3),
			pm(a.Seconds, a.SecondsCI, 2),
		)
		if r.BytesPerRank > 0 {
			fmt.Fprintf(&b, " %.0f B in %.1f msgs sent per rank", r.BytesPerRank, r.MsgsPerRank)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pm(mean, ci float64, prec int) string {
	return fmt.Sprintf("%.*f ± %.*f", prec, mean, prec, ci)
}

// RenderTable3 renders the suite characteristics like the paper's Table 3.
func RenderTable3(s trajectory.SuiteStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: characteristics of %d synthetic MoDEL-like trajectories\n", s.Count)
	fmt.Fprintf(&b, "%-24s %-10s %-10s %-8s %-8s\n", "Characteristic", "Mean", "Stdev", "Min", "Max")
	fmt.Fprintf(&b, "%-24s %-10.2f %-10.2f %-8.0f %-8.0f\n", "Number of residues",
		s.ResidueMean, s.ResidueStd, s.ResidueMin, s.ResidueMax)
	fmt.Fprintf(&b, "%-24s %-10.2f %-10.2f %-8.0f %-8.0f\n", "Simulation time (steps)",
		s.FramesMean, s.FramesStd, s.FramesMin, s.FramesMax)
	return b.String()
}

// RenderFigure1 renders the projection-overlap panels.
func RenderFigure1(rows []Figure1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1: class overlap per dimension under random projections\n")
	fmt.Fprintf(&b, "%-18s %-14s %-14s %-10s\n", "Panel", "Overlap dim0", "Overlap dim1", "Separable")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-14.3f %-14.3f %-10v\n", r.Panel, r.OverlapDim0, r.OverlapDim1, r.Separable)
	}
	return b.String()
}

// RenderFigure2 renders the six-cluster walkthrough.
func RenderFigure2(r Figure2Result) string {
	var b strings.Builder
	b.WriteString("Figure 2: assessing projected subspaces (six-cluster 2-D layout)\n")
	fmt.Fprintf(&b, "clusters found: %d   F1: %.3f   winning trial: %d\n", r.Clusters, r.F1, r.WinnerTrial)
	fmt.Fprintf(&b, "cuts dim0 (x): %v\n", fmtFloats(r.CutsDim0))
	fmt.Fprintf(&b, "cuts dim1 (y): %v\n", fmtFloats(r.CutsDim1))
	b.WriteString("per-trial histogram-CH index:\n")
	for t, ch := range r.TrialCH {
		marker := " "
		if t == r.WinnerTrial {
			marker = "*"
		}
		fmt.Fprintf(&b, "  trial %d%s %.2f\n", t, marker, ch)
	}
	return b.String()
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// RenderFigure3 renders the per-trajectory timing comparison.
func RenderFigure3(rows []Figure3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: execution time for clustering protein trajectories\n")
	fmt.Fprintf(&b, "%-10s %-8s %-9s %-12s %-12s %-12s %-14s %-9s\n",
		"Traj", "Frames", "Residues", "KeyBin2(s)", "kmeans(s)", "dbscan(s)", "KeyBin2 s/frame", "NMI")
	var kbTotal, kmTotal, dbTotal float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8d %-9d %-12.3f %-12.3f %-12.3f %-14.6f %-9.3f\n",
			r.Name, r.Frames, r.Residues, r.KeyBin2Sec, r.KMeansSec, r.DBSCANSec, r.KeyBin2PerFrame, r.Agreement)
		kbTotal += r.KeyBin2Sec
		kmTotal += r.KMeansSec
		dbTotal += r.DBSCANSec
	}
	fmt.Fprintf(&b, "TOTAL      KeyBin2 %.2fs   kmeans %.2fs   dbscan %.2fs\n", kbTotal, kmTotal, dbTotal)
	return b.String()
}

// RenderFigure4 renders the qualitative validation.
func RenderFigure4(r Figure4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: qualitative validation on %d frames of trajectory 1a70\n", r.Frames)
	fmt.Fprintf(&b, "HDR stable segments (%d):\n", len(r.StableSegments))
	for _, s := range r.StableSegments {
		fmt.Fprintf(&b, "  frames %5d-%5d  label %d\n", s.Start, s.End, s.Label)
	}
	fmt.Fprintf(&b, "fingerprint segments (%d):\n", len(r.FingerprintSegments))
	for _, s := range r.FingerprintSegments {
		fmt.Fprintf(&b, "  frames %5d-%5d  cluster %d\n", s.Start, s.End, s.Label)
	}
	fmt.Fprintf(&b, "fingerprint change points: %v\n", r.FingerprintChanges)
	fmt.Fprintf(&b, "agreement (NMI): with HDR %.3f, with planted truth %.3f\n",
		r.AgreementWithHDR, r.AgreementWithTruth)
	return b.String()
}

// RenderAblationA renders the partitioner comparison.
func RenderAblationA(rows []AblationARow) string {
	var b strings.Builder
	b.WriteString("Ablation A: partitioner comparison (truth = modes-1 cuts)\n")
	fmt.Fprintf(&b, "%-14s %-6s %-7s %-11s %-13s %-10s\n", "Method", "Modes", "Noise", "CutsFound", "CutErr(bins)", "Time(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-6d %-7.2f %-11.2f %-13.2f %-10.5f\n",
			r.Method, r.Modes, r.NoiseFrac, r.CutsFound, r.CutErrBins, r.Seconds)
	}
	return b.String()
}

// RenderAblationB renders the N_rp rule sweep.
func RenderAblationB(rows []AblationBRow) string {
	var b strings.Builder
	b.WriteString("Ablation B: target-dimension rule x bootstrap trials (320-d mixture)\n")
	fmt.Fprintf(&b, "%-30s %-6s %-8s %-16s %-10s\n", "Rule", "N_rp", "Trials", "F1", "Time(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-6d %-8d %-16s %-10.3f\n",
			r.Rule, r.TargetDims, r.Trials, pm(r.F1, r.F1CI, 3), r.Seconds)
	}
	return b.String()
}

// RenderAblationD renders the privacy-suppression sweep.
func RenderAblationD(rows []AblationDRow) string {
	var b strings.Builder
	b.WriteString("Ablation D: k-anonymous suppression — privacy vs utility\n")
	fmt.Fprintf(&b, "%-15s %-16s %-11s %-13s\n", "SuppressBelow", "F1", "Clusters", "Bytes/rank")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15d %-16s %-11.1f %-13.0f\n",
			r.SuppressBelow, pm(r.F1, r.F1CI, 3), r.Clusters, r.BytesPerRank)
	}
	return b.String()
}

// RenderAblationC renders the topology/communication study.
func RenderAblationC(rows []AblationCRow) string {
	var b strings.Builder
	b.WriteString("Ablation C: histogram consolidation topology and traffic\n")
	fmt.Fprintf(&b, "%-6s %-9s %-15s %-13s %-17s %-9s %-7s\n",
		"Ranks", "Topology", "Bytes/rank", "Msgs/rank", "Paper-claim bytes", "Time(s)", "F1")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-9s %-15.0f %-13.1f %-17.0f %-9.3f %-7.3f\n",
			r.Ranks, r.Topology, r.BytesPerRank, r.MsgsPerRank, r.PredictedBytes, r.Seconds, r.F1)
	}
	return b.String()
}
