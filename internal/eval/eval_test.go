package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPerfectClustering(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2}
	p, r, f1 := PrecisionRecallF1(truth, truth)
	if p != 1 || r != 1 || f1 != 1 {
		t.Fatalf("perfect: %v %v %v", p, r, f1)
	}
	if ari := ARI(truth, truth); !almost(ari, 1, 1e-12) {
		t.Fatalf("ARI %v", ari)
	}
	if nmi := NMI(truth, truth); !almost(nmi, 1, 1e-12) {
		t.Fatalf("NMI %v", nmi)
	}
	if pu := Purity(truth, truth); pu != 1 {
		t.Fatalf("purity %v", pu)
	}
}

func TestAllInOnePrediction(t *testing.T) {
	// Predicting one big cluster: recall 1 (all true pairs found together),
	// precision low — this is the paper's PDSDBSCAN failure row in Table 2
	// (1 cluster, recall 1.0, precision 0.286).
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{0, 0, 0, 0, 0, 0}
	p, r, _ := PrecisionRecallF1(pred, truth)
	if r != 1 {
		t.Fatalf("recall %v want 1", r)
	}
	// 3 true-pair groups of C(2,2)=1 each → tp=3, predPairs=C(6,2)=15.
	if !almost(p, 3.0/15, 1e-12) {
		t.Fatalf("precision %v want 0.2", p)
	}
}

func TestSingletonsPrediction(t *testing.T) {
	// All-noise prediction: no predicted pairs → precision 0 by convention,
	// recall 0.
	truth := []int{0, 0, 1, 1}
	pred := []int{-1, -1, -1, -1}
	p, r, f1 := PrecisionRecallF1(pred, truth)
	if p != 0 || r != 0 || f1 != 0 {
		t.Fatalf("noise pred: %v %v %v", p, r, f1)
	}
}

func TestPairCountsManual(t *testing.T) {
	// pred: {a,b}{c,d}; truth: {a,b,c}{d}
	pred := []int{0, 0, 1, 1}
	truth := []int{0, 0, 0, 1}
	tp, fp, fn := PairCounts(pred, truth)
	// together-in-both: (a,b) → 1. pred pairs: 2. truth pairs: 3.
	if tp != 1 || fp != 1 || fn != 2 {
		t.Fatalf("tp=%v fp=%v fn=%v", tp, fp, fn)
	}
}

func TestOverSegmentationKeepsPrecision(t *testing.T) {
	// Splitting one true cluster into two: precision stays 1, recall drops.
	// This is KeyBin2's signature behaviour (finds more clusters, high
	// precision).
	truth := []int{0, 0, 0, 0, 1, 1, 1, 1}
	pred := []int{0, 0, 5, 5, 1, 1, 1, 1}
	p, r, _ := PrecisionRecallF1(pred, truth)
	if p != 1 {
		t.Fatalf("precision %v", p)
	}
	if r >= 1 || r < 0.5 {
		t.Fatalf("recall %v", r)
	}
}

func TestLabelPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		truth := make([]int, n)
		pred := make([]int, n)
		for i := range truth {
			truth[i] = rng.Intn(4)
			pred[i] = rng.Intn(5)
		}
		// permute pred's label names
		perm := rng.Perm(5)
		permuted := make([]int, n)
		for i, l := range pred {
			permuted[i] = perm[l]
		}
		p1, r1, f1a := PrecisionRecallF1(pred, truth)
		p2, r2, f1b := PrecisionRecallF1(permuted, truth)
		return almost(p1, p2, 1e-12) && almost(r1, r2, 1e-12) && almost(f1a, f1b, 1e-12) &&
			almost(ARI(pred, truth), ARI(permuted, truth), 1e-12) &&
			almost(NMI(pred, truth), NMI(permuted, truth), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestARIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 5000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	if ari := ARI(a, b); math.Abs(ari) > 0.02 {
		t.Fatalf("random ARI %v should be ~0", ari)
	}
}

func TestARIEmptyIdentical(t *testing.T) {
	if ARI(nil, nil) != 1 {
		t.Fatal("empty ARI")
	}
	// identical single-cluster labelings agree maximally
	if ari := ARI([]int{0, 0}, []int{3, 3}); ari != 1 {
		t.Fatalf("single-cluster ARI %v", ari)
	}
}

func TestNMIDegenerate(t *testing.T) {
	if NMI(nil, nil) != 0 {
		t.Fatal("empty NMI should be 0")
	}
	// all points noise in pred
	if NMI([]int{-1, -1}, []int{0, 1}) != 0 {
		t.Fatal("all-noise NMI")
	}
}

func TestPurity(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 1}
	pred := []int{0, 0, 1, 1, 1, 1}
	// cluster 0: 2 points all truth-0 → 2 correct; cluster 1: 4 points,
	// majority truth-1 (3) → 3 correct. purity = 5/6.
	if pu := Purity(pred, truth); !almost(pu, 5.0/6, 1e-12) {
		t.Fatalf("purity %v", pu)
	}
	if Purity([]int{-1}, []int{0}) != 0 {
		t.Fatal("noise-only purity")
	}
}

func TestRepeatAggregate(t *testing.T) {
	agg := Repeat(4, func(run int) RunResult {
		return RunResult{Clusters: float64(run), Precision: 0.5, Recall: 1, F1: 0.66, Seconds: 1}
	})
	if agg.Runs != 4 {
		t.Fatalf("runs %d", agg.Runs)
	}
	if !almost(agg.Clusters, 1.5, 1e-12) {
		t.Fatalf("clusters mean %v", agg.Clusters)
	}
	if agg.PrecCI != 0 || agg.Precision != 0.5 {
		t.Fatalf("precision %v ± %v", agg.Precision, agg.PrecCI)
	}
	if agg.ClustersCI <= 0 {
		t.Fatal("varying metric should have positive CI")
	}
}

func TestTimedAndEvaluate(t *testing.T) {
	r := Evaluate([]int{0, 0, 1}, []int{0, 0, 1}, 2.5)
	if r.Clusters != 2 || r.F1 != 1 || r.Seconds != 2.5 {
		t.Fatalf("Evaluate %+v", r)
	}
}

func TestReportComposition(t *testing.T) {
	pred := []int{0, 0, 0, 1, 1, -1}
	truth := []int{5, 5, 7, 9, 9, 9}
	reports := Report(pred, truth)
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	// Ordered by size desc: cluster 0 (3 pts) then cluster 1 (2 pts).
	if reports[0].Label != 0 || reports[0].Size != 3 || reports[0].DominantTruth != 5 {
		t.Fatalf("report0 %+v", reports[0])
	}
	if !almost(reports[0].Purity, 2.0/3, 1e-12) {
		t.Fatalf("purity %v", reports[0].Purity)
	}
	if reports[1].Label != 1 || reports[1].DominantTruth != 9 || reports[1].Purity != 1 {
		t.Fatalf("report1 %+v", reports[1])
	}
	out := RenderReport(reports, 0)
	if !strings.Contains(out, "purity") {
		t.Fatalf("render:\n%s", out)
	}
	capped := RenderReport(reports, 1)
	if !strings.Contains(capped, "1 more") {
		t.Fatalf("capped render:\n%s", capped)
	}
	if len(Report([]int{-1}, []int{0})) != 0 {
		t.Fatal("noise-only report")
	}
}
