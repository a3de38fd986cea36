package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{
		PointsPerProc:      600,
		Repeats:            1,
		Procs:              2,
		DimLadder:          []int{20, 80},
		ProcLadder:         []int{1, 2},
		Table2Dims:         80,
		TrajectoryFrameDiv: 20,
		Seed:               1,
	}
}

func TestTable1ShapeAndQuality(t *testing.T) {
	rows := Table1(tiny())
	// 2 dims × 6 methods (incl. xmeans, keybin1, and mafia comparators)
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	byMethod := map[string]int{}
	for _, r := range rows {
		byMethod[r.Method]++
		if r.Skipped && r.Method != "mafia" {
			t.Fatalf("unexpected skip: %+v", r)
		}
		if r.Skipped {
			continue // mafia may legitimately fail to converge
		}
		// keybin1 may legitimately collapse to F1 0 at higher dims.
		if r.Method != "keybin1 (no proj.)" && (r.Agg.F1 <= 0 || r.Agg.F1 > 1) {
			t.Fatalf("%s/%s F1 %v", r.Group, r.Method, r.Agg.F1)
		}
		if r.Agg.Seconds <= 0 {
			t.Fatalf("%s/%s time %v", r.Group, r.Method, r.Agg.Seconds)
		}
	}
	if byMethod["KeyBin2"] != 2 || byMethod["kmeans++"] != 2 || byMethod["parallel-kmeans"] != 2 || byMethod["keybin1 (no proj.)"] != 2 || byMethod["xmeans"] != 2 {
		t.Fatalf("methods %v", byMethod)
	}
	out := RenderTable("Table 1", rows)
	if !strings.Contains(out, "KeyBin2") || !strings.Contains(out, "±") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable2SkipsDistributedDBSCAN(t *testing.T) {
	rows := Table2(tiny())
	// 2 proc points × 3 methods
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	var sawDB1, sawSkip bool
	for _, r := range rows {
		if r.Method == "pdsdbscan" {
			if strings.HasPrefix(r.Group, "1 ") {
				sawDB1 = true
				if r.Skipped {
					t.Fatal("pdsdbscan at 1 process must run")
				}
			} else {
				sawSkip = true
				if !r.Skipped {
					t.Fatal("pdsdbscan beyond 1 process must be skipped")
				}
			}
		}
	}
	if !sawDB1 || !sawSkip {
		t.Fatalf("pdsdbscan coverage: ran=%v skipped=%v", sawDB1, sawSkip)
	}
	out := RenderTable("Table 2", rows)
	if !strings.Contains(out, "pdsdbscan") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	s := Table3(tiny())
	if s.Count != 31 {
		t.Fatalf("count %d", s.Count)
	}
	out := RenderTable3(s)
	if !strings.Contains(out, "Number of residues") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure1OriginalOverlapsProjectionsVary(t *testing.T) {
	rows := Figure1(tiny())
	if len(rows) != 6 {
		t.Fatalf("%d panels", len(rows))
	}
	orig := rows[0]
	// The correlated original overlaps heavily on both axes.
	if orig.OverlapDim0 < 0.5 || orig.OverlapDim1 < 0.5 {
		t.Fatalf("original overlaps %.3f/%.3f should be high", orig.OverlapDim0, orig.OverlapDim1)
	}
	// At least one random projection decorrelates (low overlap in some
	// dimension).
	decorrelated := false
	for _, r := range rows[1:] {
		if r.OverlapDim0 < 0.3 || r.OverlapDim1 < 0.3 {
			decorrelated = true
		}
	}
	if !decorrelated {
		t.Fatalf("no projection decorrelated: %+v", rows)
	}
	if out := RenderFigure1(rows); !strings.Contains(out, "original") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure2FindsSixClusters(t *testing.T) {
	res, err := Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters < 5 || res.Clusters > 9 {
		t.Fatalf("clusters %d (want ≈6)", res.Clusters)
	}
	if res.F1 < 0.8 {
		t.Fatalf("F1 %.3f", res.F1)
	}
	if len(res.TrialCH) != 5 {
		t.Fatalf("trial CH count %d", len(res.TrialCH))
	}
	// Winner must hold the max CH.
	for _, ch := range res.TrialCH {
		if ch > res.TrialCH[res.WinnerTrial] {
			t.Fatalf("winner %d not max: %v", res.WinnerTrial, res.TrialCH)
		}
	}
	// The 3×2 grid needs 2 cuts in x and 1 in y (or the model collapsed a
	// dimension — require at least the total).
	if len(res.CutsDim0)+len(res.CutsDim1) < 3 {
		t.Fatalf("cuts %v / %v", res.CutsDim0, res.CutsDim1)
	}
	if out := RenderFigure2(res); !strings.Contains(out, "trial") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure3TimingShape(t *testing.T) {
	rows, err := Figure3(tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.KeyBin2Sec <= 0 || r.KMeansSec <= 0 || r.DBSCANSec <= 0 {
			t.Fatalf("times %+v", r)
		}
		if r.KeyBin2PerFrame <= 0 || r.KeyBin2PerFrame > 0.1 {
			t.Fatalf("per-frame %v", r.KeyBin2PerFrame)
		}
		if r.Agreement < 0.3 {
			t.Fatalf("%s agreement %.3f", r.Name, r.Agreement)
		}
	}
	if out := RenderFigure3(rows); !strings.Contains(out, "TOTAL") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFigure4Pipeline(t *testing.T) {
	res, err := Figure4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StableSegments) < 2 {
		t.Fatalf("HDR segments %d", len(res.StableSegments))
	}
	if len(res.FingerprintSegments) < 2 {
		t.Fatalf("fingerprint segments %d", len(res.FingerprintSegments))
	}
	if res.AgreementWithTruth < 0.4 {
		t.Fatalf("truth agreement %.3f", res.AgreementWithTruth)
	}
	if out := RenderFigure4(res); !strings.Contains(out, "1a70") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationAPartitionerWins(t *testing.T) {
	s := tiny()
	rows := AblationA(s)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Aggregate cut-count error per method at the noisiest setting.
	errOf := map[string]float64{}
	n := map[string]int{}
	for _, r := range rows {
		if r.NoiseFrac < 0.29 {
			continue
		}
		truthCuts := float64(r.Modes - 1)
		d := r.CutsFound - truthCuts
		if d < 0 {
			d = -d
		}
		errOf[r.Method] += d
		n[r.Method]++
	}
	for m := range errOf {
		errOf[m] /= float64(n[m])
	}
	if errOf["discrete-opt"] > errOf["threshold"]+0.01 {
		t.Fatalf("discrete-opt (%.2f) should not trail threshold (%.2f) under noise", errOf["discrete-opt"], errOf["threshold"])
	}
	if out := RenderAblationA(rows); !strings.Contains(out, "discrete-opt") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationBRuleCompetitive(t *testing.T) {
	s := tiny()
	rows := AblationB(s)
	var paperBest, otherBest float64
	for _, r := range rows {
		if strings.HasPrefix(r.Rule, "paper-rule") {
			if r.F1 > paperBest {
				paperBest = r.F1
			}
		} else if r.F1 > otherBest {
			otherBest = r.F1
		}
	}
	if paperBest < 0.5 {
		t.Fatalf("paper rule best F1 %.3f", paperBest)
	}
	if out := RenderAblationB(rows); !strings.Contains(out, "paper-rule") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationCTrafficFlat(t *testing.T) {
	s := tiny()
	s.ProcLadder = []int{2, 4}
	rows := AblationC(s)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BytesPerRank <= 0 {
			t.Fatalf("row %+v", r)
		}
		if r.F1 < 0.5 {
			t.Fatalf("%s@%d F1 %.3f", r.Topology, r.Ranks, r.F1)
		}
	}
	if out := RenderAblationC(rows); !strings.Contains(out, "ring") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestHeadlineRunsLastRungOnEveryRank(t *testing.T) {
	s := tiny()
	r, err := Headline(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ranks != 2 || r.PointsPerRank != 600 || r.Dims != 80 {
		t.Fatalf("design point %+v", r)
	}
	if r.Run.F1 < 0.5 || r.Run.Seconds <= 0 || r.TrafficBytes <= 0 {
		t.Fatalf("run %+v", r)
	}
	again, err := Headline(s)
	if err != nil {
		t.Fatal(err)
	}
	if again.Run.F1 != r.Run.F1 || again.TrafficBytes != r.TrafficBytes {
		t.Fatalf("not deterministic per seed: %+v then %+v", r, again)
	}
	if out := RenderHeadline(r); !strings.Contains(out, "2 ranks × 600 points × 80 dims") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestScalePresets(t *testing.T) {
	d, p := Default(), Paper()
	if d.PointsPerProc >= p.PointsPerProc || d.Repeats >= p.Repeats {
		t.Fatal("default must be smaller than paper scale")
	}
	if len(p.DimLadder) != 4 || p.DimLadder[3] != 1280 {
		t.Fatalf("paper ladder %v", p.DimLadder)
	}
}

func TestTable1IncludesKeyBin1(t *testing.T) {
	s := tiny()
	s.DimLadder = []int{20}
	rows := Table1(s)
	var sawKB1 bool
	for _, r := range rows {
		if r.Method == "keybin1 (no proj.)" {
			sawKB1 = true
			if r.Agg.Seconds <= 0 {
				t.Fatalf("keybin1 row %+v", r)
			}
		}
	}
	if !sawKB1 {
		t.Fatal("Table 1 must include the KeyBin1 comparator")
	}
}

func TestAblationDPrivacySweep(t *testing.T) {
	s := tiny()
	rows := AblationD(s)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].SuppressBelow != 0 {
		t.Fatal("first row must be the no-suppression baseline")
	}
	// Small thresholds must not destroy accuracy.
	if rows[1].F1 < rows[0].F1-0.2 {
		t.Fatalf("k=2 F1 %.3f vs baseline %.3f", rows[1].F1, rows[0].F1)
	}
	// Suppression reduces (or maintains) communication volume.
	if rows[5].BytesPerRank > rows[0].BytesPerRank*1.01 {
		t.Fatalf("k=100 bytes %v should not exceed baseline %v", rows[5].BytesPerRank, rows[0].BytesPerRank)
	}
	if out := RenderAblationD(rows); !strings.Contains(out, "SuppressBelow") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestCSVWriters(t *testing.T) {
	s := tiny()
	s.DimLadder = []int{20}

	var buf bytes.Buffer
	rows := Table1(s)
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(rows)+1 || records[0][0] != "group" {
		t.Fatalf("%d records", len(records))
	}

	buf.Reset()
	if err := WriteFigure1CSV(&buf, Figure1(s)); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 7 {
		t.Fatalf("figure1 csv lines %d", lines)
	}

	buf.Reset()
	f3, err := Figure3(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFigure3CSV(&buf, f3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "keybin2_sec") {
		t.Fatal("figure3 header")
	}

	buf.Reset()
	f4, err := Figure4(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSegmentsCSV(&buf, f4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hdr") || !strings.Contains(buf.String(), "fingerprint") {
		t.Fatalf("segments csv:\n%s", buf.String())
	}
}

func TestVerifyShapeClaims(t *testing.T) {
	s := tiny()
	s.Repeats = 2 // a little stability for the F1 comparisons
	violations := VerifyShapeClaims(s)
	if len(violations) != 0 {
		t.Fatalf("shape claims violated:\n%s", RenderVerify(violations))
	}
	if !strings.Contains(RenderVerify(nil), "ALL HOLD") {
		t.Fatal("render")
	}
	if !strings.Contains(RenderVerify([]string{"x"}), "VIOLATION") {
		t.Fatal("render violations")
	}
}
