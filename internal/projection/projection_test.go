package projection

import (
	"math"
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/xrand"
)

func TestTargetDims(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 2}, {4, 3}, {20, 7}, {80, 10}, {320, 13}, {1280, 16},
	}
	for _, c := range cases {
		if got := TargetDims(c.n); got != c.want {
			t.Fatalf("TargetDims(%d)=%d want %d", c.n, got, c.want)
		}
	}
	// never exceeds n
	if TargetDims(3) > 3 {
		t.Fatal("TargetDims must not exceed n")
	}
}

func TestJLDims(t *testing.T) {
	// JL bound for 1e6 points at eps=0.1 is in the thousands — vastly more
	// than the paper's rule, which is the point of the ablation.
	jl := JLDims(1000000, 0.1)
	if jl < 1000 {
		t.Fatalf("JL bound suspiciously small: %d", jl)
	}
	if TargetDims(1280) >= jl {
		t.Fatal("paper rule should be far below JL bound")
	}
	if JLDims(1, 0.1) != 1 || JLDims(100, 0) != 1 || JLDims(100, 1) != 1 {
		t.Fatal("degenerate JL inputs")
	}
}

func TestNewKindsUnitColumns(t *testing.T) {
	for _, kind := range []Kind{Gaussian, Achlioptas, Orthonormal} {
		m, err := New(kind, 50, 6, xrand.New(1))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if m.Rows != 50 || m.Cols != 6 {
			t.Fatalf("%v shape %dx%d", kind, m.Rows, m.Cols)
		}
		for j := 0; j < m.Cols; j++ {
			if n := linalg.Norm(m.Col(j)); math.Abs(n-1) > 1e-9 {
				t.Fatalf("%v col %d norm %v", kind, j, n)
			}
		}
	}
}

func TestOrthonormalIsOrthogonal(t *testing.T) {
	m, err := New(Orthonormal, 40, 8, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if c := linalg.MaxColumnCoherence(m); c > 1e-9 {
		t.Fatalf("coherence %v", c)
	}
}

func TestGaussianNearOrthogonalInHighDim(t *testing.T) {
	// Random unit vectors in high dimension are nearly orthogonal — the
	// property §3.1 leans on.
	m, err := New(Gaussian, 2000, 10, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if c := linalg.MaxColumnCoherence(m); c > 0.12 {
		t.Fatalf("high-dim Gaussian coherence %v too large", c)
	}
}

func TestAchlioptasSparsity(t *testing.T) {
	rng := xrand.New(4)
	m, err := New(Achlioptas, 300, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range m.Data {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(m.Data))
	if frac < 0.55 || frac > 0.75 {
		t.Fatalf("Achlioptas zero fraction %v want ~2/3", frac)
	}
}

func TestNewValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := New(Gaussian, 0, 3, rng); err == nil {
		t.Fatal("n=0 must fail")
	}
	if _, err := New(Orthonormal, 3, 5, rng); err == nil {
		t.Fatal("orthonormal with nrp>n must fail")
	}
	if _, err := New(Kind(99), 3, 2, rng); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, _ := New(Gaussian, 20, 4, xrand.New(7))
	b, _ := New(Gaussian, 20, 4, xrand.New(7))
	if !linalg.Equal(a, b, 0) {
		t.Fatal("same seed must give same matrix")
	}
	c, _ := New(Gaussian, 20, 4, xrand.New(8))
	if linalg.Equal(a, c, 1e-12) {
		t.Fatal("different seeds should differ")
	}
}

func TestApplyPreservesLengthsForRotation(t *testing.T) {
	// An orthonormal projection to the full dimension is a rotation:
	// lengths are preserved exactly.
	n := 12
	a, err := New(Orthonormal, n, n, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pts := linalg.NewMatrix(30, n)
	rng := xrand.New(6)
	for i := range pts.Data {
		pts.Data[i] = rng.Norm()
	}
	proj, err := linalg.Mul(nil, pts, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pts.Rows; i++ {
		l0, l1 := linalg.Norm(pts.Row(i)), linalg.Norm(proj.Row(i))
		if math.Abs(l0-l1) > 1e-9 {
			t.Fatalf("row %d length %v -> %v", i, l0, l1)
		}
	}
}

func TestBatchEquivalentToIndividualTrials(t *testing.T) {
	rng := xrand.New(11)
	b, err := NewBatch(Gaussian, 25, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.Joined.Cols != 12 {
		t.Fatalf("joined cols %d", b.Joined.Cols)
	}
	pts := linalg.NewMatrix(17, 25)
	prng := xrand.New(12)
	for i := range pts.Data {
		pts.Data[i] = prng.Norm()
	}
	joined, err := linalg.Mul(nil, pts, b.Joined)
	if err != nil {
		t.Fatal(err)
	}
	// Joined's layout: trial t's matrix is columns [t·Nrp, (t+1)·Nrp).
	// Reconstruct trial 1's matrix and compare that column range, in the
	// joined matrix itself and in what it projects.
	m1, err := New(Gaussian, 25, 4, rng.SplitN("projection", 1))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := linalg.Mul(nil, pts, m1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trials != 3 || b.Nrp != 4 {
		t.Fatalf("batch shape %d trials × %d", b.Trials, b.Nrp)
	}
	for j := 0; j < b.Nrp; j++ {
		for i := 0; i < m1.Rows; i++ {
			if b.Joined.At(i, b.Nrp+j) != m1.At(i, j) {
				t.Fatalf("joined column %d is not trial 1's column %d", b.Nrp+j, j)
			}
		}
	}
	for i := 0; i < pts.Rows; i++ {
		tr := joined.Row(i)[b.Nrp : 2*b.Nrp]
		for j := 0; j < 4; j++ {
			if math.Abs(tr[j]-solo.At(i, j)) > 1e-9 {
				t.Fatalf("batch and solo trial differ at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewBatchValidation(t *testing.T) {
	if _, err := NewBatch(Gaussian, 10, 3, 0, xrand.New(1)); err == nil {
		t.Fatal("zero trials must fail")
	}
}

func TestKindString(t *testing.T) {
	if Gaussian.String() != "gaussian" || Achlioptas.String() != "achlioptas" ||
		Orthonormal.String() != "orthonormal" || Kind(42).String() == "" {
		t.Fatal("Kind names")
	}
}
