// Package keybin2 is a Go implementation of KeyBin2 (Chen, Peterson,
// Benson, Taufer, Estrada — ICPP 2018): key-based distributed clustering
// for scalable and in-situ analysis.
//
// KeyBin2 clusters data without pairwise distance computations. Each point
// independently receives a hierarchical key — its path through a binary
// binning tree per dimension of a randomly projected subspace — and only
// per-dimension binning histograms (kilobytes, regardless of data size)
// are ever communicated. A discrete-optimization partitioner cuts each
// histogram at density valleys; keys map points onto the resulting primary
// clusters; bootstrapping over several random projections selects the most
// separable view with a histogram-space Calinski–Harabasz index. The
// algorithm is embarrassingly parallel, needs no cluster count K, and runs
// in batch, distributed, and streaming (in-situ) modes.
//
// # Quick start
//
//	model, labels, err := keybin2.Fit(data, keybin2.Config{Seed: 1})
//
// data is a row-major point matrix (see NewMatrix / FromRows); labels
// assigns every row a cluster id (Noise = -1 for outliers); model labels
// unseen points via model.Assign.
//
// # Distributed
//
//	err := keybin2.Run(ranks, func(c *keybin2.Comm) error {
//		model, labels, err := keybin2.FitDistributed(c, localShard, cfg)
//		...
//	})
//
// Each rank holds its own shard; only histograms move. Run executes ranks
// as goroutines; DialTCP/RunTCP provide the same semantics across real
// sockets. Config.Ring switches histogram consolidation to a ring topology.
//
// # Streaming
//
//	st, _ := keybin2.NewStream(keybin2.StreamConfig{Config: cfg, Dims: d})
//	label, _ := st.Ingest(point) // memory stays flat forever
//
// The streaming engine keeps histograms and key sketches only, refits
// periodically, and holds cluster labels stable across refits.
//
// The experiment harness reproducing every table and figure of the paper
// lives in cmd/benchtab; see DESIGN.md and EXPERIMENTS.md.
package keybin2

import (
	"keybin2/internal/cluster"
	"keybin2/internal/core"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/projection"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = cluster.Noise

// Matrix is a dense row-major matrix: one point per row.
type Matrix = linalg.Matrix

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return linalg.NewMatrix(rows, cols) }

// FromRows builds a matrix from a slice of equal-length rows (copied).
func FromRows(rows [][]float64) (*Matrix, error) { return linalg.FromRows(rows) }

// Config tunes a KeyBin2 fit; the zero value (plus a Seed) selects the
// paper's defaults. See internal/core.Config for field documentation.
type Config = core.Config

// Model is a fitted clustering; it can label unseen points (Assign).
type Model = core.Model

// Fit clusters the rows of data on a single process: a one-rank
// FitDistributed.
func Fit(data *Matrix, cfg Config) (*Model, []int, error) { return core.Fit(data, cfg) }

// DecodeModel parses a payload produced by Model.Encode, restoring a model
// that labels points exactly like the original — fitted clusterings can be
// checkpointed and shipped to late-joining workers.
func DecodeModel(b []byte) (*Model, error) { return core.DecodeModel(b) }

// Comm is one rank's endpoint in a message-passing world.
type Comm = mpi.Comm

// Run executes fn on size in-process ranks and waits for all of them.
func Run(size int, fn func(c *Comm) error) error { return mpi.Run(size, fn) }

// FitDistributed clusters data sharded across the ranks of comm; every
// rank receives the same global model and labels for its local rows.
func FitDistributed(comm *Comm, local *Matrix, cfg Config) (*Model, []int, error) {
	return core.FitDistributed(comm, local, cfg)
}

// StreamConfig tunes the streaming (in-situ) mode.
type StreamConfig = core.StreamConfig

// Stream ingests points one at a time with bounded memory.
type Stream = core.Stream

// NewStream creates a streaming clusterer.
func NewStream(cfg StreamConfig) (*Stream, error) { return core.NewStream(cfg) }

// DecodeStream restores a stream checkpoint produced by Stream.Encode;
// cfg must match the original stream's configuration. Ingestion resumes
// exactly where the checkpoint was taken.
func DecodeStream(cfg StreamConfig, b []byte) (*Stream, error) { return core.DecodeStream(cfg, b) }

// ProjectionKind selects the random-projection construction.
type ProjectionKind = projection.Kind

// Projection matrix constructions.
const (
	Gaussian    = projection.Gaussian
	Achlioptas  = projection.Achlioptas
	Orthonormal = projection.Orthonormal
)

// TargetDims returns the paper's N_rp = max(2, ⌈1.5·log₂N⌉) rule.
func TargetDims(n int) int { return projection.TargetDims(n) }

// PrecisionRecallF1 computes pairwise precision, recall, and F1 between a
// predicted and a true labeling (the paper's §4 metrics).
func PrecisionRecallF1(pred, truth []int) (precision, recall, f1 float64) {
	return eval.PrecisionRecallF1(pred, truth)
}

// ARI returns the adjusted Rand index between two labelings.
func ARI(pred, truth []int) float64 { return eval.ARI(pred, truth) }

// NMI returns the normalized mutual information between two labelings.
func NMI(pred, truth []int) float64 { return eval.NMI(pred, truth) }
