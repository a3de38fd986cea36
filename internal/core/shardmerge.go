package core

import "fmt"

// Shard-state exchange: the serving-layer form of the paper's
// histogram-only communication. Each keybin2d shard ingests a partition of
// the producer stream into its own histograms and key sketches; what
// shards exchange is never raw points but an encoded consolidation fold
// (fold.go: the cumulative per-trial histogram sets and coarse sketch
// masses, the same value and bytes the MPI collectives reduce). A merge
// coordinator (the shard router) folds K shard states with
// MergeShardStates and derives one global model from the sum with
// GlobalModelState; the encoded model (which carries its stabilized
// labels on the wire) is then installed on every shard, so the whole
// cluster labels identically.
//
// The exchange is cumulative, not delta-based: every epoch each shard
// re-publishes its full local contribution. That costs a little bandwidth
// (the payload is bounded by bins and occupied sketch cells, never by
// stream length) and buys crash-trivial semantics — a shard that missed an
// epoch, died, or restarted from its checkpoint simply publishes its
// cumulative state at the next epoch and the merged total is correct
// again, with no per-peer delta bookkeeping to repair.

// EncodeShardState packages this stream's cumulative local contribution
// for the cross-shard merge: per trial, the full histogram set and the
// coarse key sketch (masses rounded to integers — exact, since shard mode
// excludes decay and every ingested point contributes mass 1).
//
// Writer-goroutine only, like Ingest/Refit: it reads the live histograms.
// It fails before warmup completes (serve shards with predetermined
// RawRanges so there is no warmup buffer and shard histograms are
// congruent by construction), when DecayFactor is active (forgetting
// cannot be coordinated across shards), or on a stream already entangled
// with the MPI-side SyncDistributed delta protocol.
func (s *Stream) EncodeShardState() ([]byte, error) {
	if s.sets == nil {
		return nil, fmt.Errorf("core: shard state before warmup completed")
	}
	if f := s.cfg.DecayFactor; f > 0 && f < 1 {
		return nil, fmt.Errorf("core: shard state is incompatible with DecayFactor")
	}
	if s.synced != nil {
		return nil, fmt.Errorf("core: shard state on a SyncDistributed stream is not supported")
	}
	return s.fold().encode(), nil
}

// MergeShardStates folds K encoded shard states into one: per trial,
// bin-wise histogram sums and key-mass sums. The fold is commutative and
// associative and its encoding canonical, so any permutation or
// parenthesization of the same states yields byte-identical output.
// Congruence (same trial count, dimensions, depth, and ranges — guaranteed
// when every shard runs the identical StreamConfig) is validated and
// mismatches are errors.
func MergeShardStates(states ...[]byte) ([]byte, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("core: merge of zero shard states")
	}
	acc, err := decodeFold(states[0], nil)
	if err != nil {
		return nil, err
	}
	for i, b := range states[1:] {
		st, err := decodeFold(b, nil)
		if err == nil {
			err = acc.merge(st)
		}
		if err != nil {
			return nil, fmt.Errorf("core: shard state %d: %w", i+1, err)
		}
	}
	return acc.encode(), nil
}

// GlobalModelState is the cross-shard label-stabilization authority: one
// instance (owned by the merge coordinator) turns each epoch's merged
// shard state into the cluster's global model. It wraps a Stream whose
// histograms are replaced wholesale every epoch, so Refit's deterministic
// partitioning runs on the merged totals and stabilizeLabels carries
// cluster identities across epochs exactly as a single node's periodic
// refits would. Because the state machine lives in ONE place and the
// resulting model is shipped to shards in encoded form (which carries the
// stabilized labels on the wire), shards that missed epochs rejoin with
// the identical model — they never re-derive labels locally.
//
// All methods are single-goroutine: the coordinator serializes epochs.
type GlobalModelState struct {
	s *Stream
}

// NewGlobalModelState builds the merge authority for a cluster whose
// shards all run cfg. Predetermined RawRanges are required — they are what
// makes every shard's histograms congruent without a warmup buffer — and
// DecayFactor must be off, mirroring EncodeShardState.
func NewGlobalModelState(cfg StreamConfig) (*GlobalModelState, error) {
	if cfg.RawRanges == nil {
		return nil, &StreamConfigError{Field: "RawRanges",
			Reason: "cross-shard merge needs predetermined ranges so every shard bins into congruent histograms"}
	}
	if f := cfg.DecayFactor; f != 0 {
		return nil, &StreamConfigError{Field: "DecayFactor",
			Reason: "forgetting cannot be coordinated across shards"}
	}
	st, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return &GlobalModelState{s: st}, nil
}

// Install adopts a merged shard state as the new global totals and refits,
// returning the published global model. Identical inputs against an
// identical install history produce identical models — Refit is
// deterministic and label stabilization is a pure function of the
// previous install's model.
func (g *GlobalModelState) Install(merged []byte) (*Model, error) {
	st, err := decodeFold(merged, nil)
	if err != nil {
		return nil, err
	}
	if err := g.s.adopt(st); err != nil {
		return nil, err
	}
	return g.s.Snapshot(), nil
}

// Model returns the global model published by the latest Install (nil
// before the first).
func (g *GlobalModelState) Model() *Model { return g.s.Snapshot() }

// Seen returns the total point count behind the latest installed state.
func (g *GlobalModelState) Seen() int { return g.s.Seen() }
