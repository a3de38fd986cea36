// Package projection builds the random linear maps KeyBin2 uses to rotate
// data into a low-dimensional subspace (§3.1). Column vectors are unit
// length; in high dimension random Gaussian columns are nearly orthogonal,
// so the transform approximately rotates the data, decorrelating cluster
// overlaps that defeat per-dimension binning.
//
// Three constructions are provided: dense Gaussian, the Achlioptas sparse
// {−1, 0, +1} projection (cheaper to apply), and an explicitly
// Gram–Schmidt-orthonormalized Gaussian matrix. KeyBin2 needs only that the
// ordering of points along each column spreads the data, not the
// Johnson–Lindenstrauss distance-preservation bound, which is why the paper
// can target N_rp = 1.5·log₂N dimensions — far below the JL bound.
package projection

import (
	"fmt"
	"math"

	"keybin2/internal/linalg"
	"keybin2/internal/xrand"
)

// Kind selects the projection matrix construction.
type Kind int

const (
	// Gaussian draws N(0,1) entries and normalizes columns.
	Gaussian Kind = iota
	// Achlioptas draws entries from {+1, 0, −1} with probabilities
	// {1/6, 2/3, 1/6} and normalizes columns; applying it needs no
	// multiplications for two thirds of the entries.
	Achlioptas
	// Orthonormal Gram–Schmidt-orthonormalizes a Gaussian draw, producing
	// an exact rotation into the subspace (requires nrp <= n).
	Orthonormal
)

// String names the kind for logs and experiment output.
func (k Kind) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Achlioptas:
		return "achlioptas"
	case Orthonormal:
		return "orthonormal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// TargetDims returns the paper's reduced dimensionality rule
// N_rp = max(2, ⌈1.5·log₂N⌉). For N ≤ 2 the data is already low
// dimensional and is kept as is.
func TargetDims(n int) int {
	if n <= 2 {
		return n
	}
	nrp := int(math.Ceil(1.5 * math.Log2(float64(n))))
	if nrp < 2 {
		nrp = 2
	}
	if nrp > n {
		nrp = n
	}
	return nrp
}

// JLDims returns the Dasgupta–Gupta Johnson–Lindenstrauss lower bound
// 4·(ε²/2 − ε³/3)⁻¹·ln(m) on the embedding dimension needed to preserve
// pairwise distances among m points within relative error ε. KeyBin2 does
// not need this bound; it is implemented for the ablation comparing the
// paper's 1.5·log₂N rule against the JL-safe choice.
func JLDims(m int, eps float64) int {
	if m < 2 || eps <= 0 || eps >= 1 {
		return 1
	}
	d := 4 / (float64(eps*eps/2) - float64(eps*eps*eps/3)) * math.Log(float64(m))
	return int(math.Ceil(d))
}

// New builds an n×nrp projection matrix of the given kind with unit
// columns, drawn from rng. Orthonormal redraws degenerate Gaussian samples
// until Gram–Schmidt succeeds (with a draw bound to guarantee termination).
func New(kind Kind, n, nrp int, rng *xrand.Stream) (*linalg.Matrix, error) {
	if n <= 0 || nrp <= 0 {
		return nil, fmt.Errorf("projection: invalid shape %dx%d", n, nrp)
	}
	if kind == Orthonormal && nrp > n {
		return nil, fmt.Errorf("projection: orthonormal needs nrp (%d) <= n (%d)", nrp, n)
	}
	switch kind {
	case Gaussian:
		m := linalg.NewMatrix(n, nrp)
		for i := range m.Data {
			m.Data[i] = rng.Norm()
		}
		linalg.NormalizeColumns(m)
		return m, nil
	case Achlioptas:
		m := linalg.NewMatrix(n, nrp)
		for i := range m.Data {
			u := rng.Float64()
			switch {
			case u < 1.0/6:
				m.Data[i] = 1
			case u < 2.0/6:
				m.Data[i] = -1
			}
		}
		// A zero column (possible for small n) is replaced by a basis
		// vector so normalization cannot divide by zero.
		for j := 0; j < nrp; j++ {
			col := m.Col(j)
			if linalg.Norm(col) == 0 {
				m.Set(rng.Intn(n), j, 1)
			}
		}
		linalg.NormalizeColumns(m)
		return m, nil
	case Orthonormal:
		for attempt := 0; attempt < 16; attempt++ {
			m := linalg.NewMatrix(n, nrp)
			for i := range m.Data {
				m.Data[i] = rng.Norm()
			}
			if err := linalg.GramSchmidt(m); err == nil {
				return m, nil
			}
		}
		return nil, fmt.Errorf("projection: could not draw %dx%d independent Gaussian columns", n, nrp)
	default:
		return nil, fmt.Errorf("projection: unknown kind %v", kind)
	}
}

// Batch bundles t independent trial projections applied in a single pass,
// the optimization §3.4 suggests ("perform t simultaneous random
// projections, taking M out of the t bootstrapping steps"): the t matrices
// are concatenated column-wise so the data is read once.
type Batch struct {
	Trials int
	Nrp    int
	Joined *linalg.Matrix // n × (Trials·Nrp)
	Packed *linalg.Packed // Joined laid out for linalg.MulPacked
}

// NewBatch draws t projection matrices of the given kind and joins them.
// Trial i uses the child stream rng.SplitN("projection", i), so individual
// trials are reproducible regardless of batch size.
func NewBatch(kind Kind, n, nrp, trials int, rng *xrand.Stream) (*Batch, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("projection: trials must be positive, got %d", trials)
	}
	joined := linalg.NewMatrix(n, trials*nrp)
	for t := 0; t < trials; t++ {
		m, err := New(kind, n, nrp, rng.SplitN("projection", t))
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", t, err)
		}
		for j := 0; j < nrp; j++ {
			joined.SetCol(t*nrp+j, m.Col(j))
		}
	}
	return &Batch{Trials: trials, Nrp: nrp, Joined: joined, Packed: linalg.Pack(joined)}, nil
}
