package mpi

import "sync/atomic"

// Collective kinds tracked by Stats. The names are stable identifiers used
// in snapshots, metrics labels, and trace spans.
const (
	collBcast = iota
	collReduce
	collAllreduce
	collRingAllreduce
	collGather
	collAllgather
	collScatter
	collBarrier
	numCollectives
)

var collNames = [numCollectives]string{
	collBcast:         "bcast",
	collReduce:        "reduce",
	collAllreduce:     "allreduce",
	collRingAllreduce: "ring_allreduce",
	collGather:        "gather",
	collAllgather:     "allgather",
	collScatter:       "scatter",
	collBarrier:       "barrier",
}

// Stats accounts for traffic originated by one rank. KeyBin2's scalability
// argument rests on the communication volume being O(2·K·N_rp·B) — a few
// kilobytes of histograms — so the experiment harness reports these counters
// alongside wall-clock time. Self-deliveries are not counted: only bytes
// that would cross a real interconnect appear here. When the Stats is built
// by a transport (newStats), traffic is additionally broken down per
// destination rank.
type Stats struct {
	msgs  atomic.Int64
	bytes atomic.Int64
	peers []peerStat // indexed by destination rank; nil on zero-value Stats
	colls [numCollectives]collStat
}

type peerStat struct {
	msgs, bytes atomic.Int64
}

type collStat struct {
	calls, bytes atomic.Int64
}

// newStats sizes the per-peer breakdown for a world of `size` ranks.
func newStats(size int) *Stats {
	return &Stats{peers: make([]peerStat, size)}
}

func (s *Stats) record(to, n int) {
	s.msgs.Add(1)
	s.bytes.Add(int64(n))
	if to >= 0 && to < len(s.peers) {
		s.peers[to].msgs.Add(1)
		s.peers[to].bytes.Add(int64(n))
	}
}

// Messages returns the number of cross-rank point-to-point messages sent by
// this rank (collectives are counted by their constituent messages).
func (s *Stats) Messages() int64 { return s.msgs.Load() }

// Bytes returns the total payload bytes sent by this rank to other ranks.
func (s *Stats) Bytes() int64 { return s.bytes.Load() }

// PeerMessages returns the number of messages sent to rank. Zero when the
// breakdown is not tracked or rank is out of range.
func (s *Stats) PeerMessages(rank int) int64 {
	if rank < 0 || rank >= len(s.peers) {
		return 0
	}
	return s.peers[rank].msgs.Load()
}

// PeerBytes returns the payload bytes sent to rank. Zero when the breakdown
// is not tracked or rank is out of range.
func (s *Stats) PeerBytes(rank int) int64 {
	if rank < 0 || rank >= len(s.peers) {
		return 0
	}
	return s.peers[rank].bytes.Load()
}

func (s *Stats) recordCollective(kind int, bytes int64) {
	s.colls[kind].calls.Add(1)
	s.colls[kind].bytes.Add(bytes)
}

// CollectiveCalls returns how many top-level collectives of the named kind
// ("allreduce", "gather", "bcast", ...) this rank has completed. Nested
// constituents are not double-counted: a Barrier counts once as "barrier",
// not additionally as the Allreduce/Reduce/Bcast it is built from.
func (s *Stats) CollectiveCalls(name string) int64 {
	for i, n := range collNames {
		if n == name {
			return s.colls[i].calls.Load()
		}
	}
	return 0
}

// CollectiveSnapshot is the per-kind accounting inside a StatsSnapshot.
type CollectiveSnapshot struct {
	Calls int64 `json:"calls"`
	Bytes int64 `json:"bytes"`
}

// PeerSnapshot is one destination rank's traffic inside a StatsSnapshot.
type PeerSnapshot struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
}

// StatsSnapshot is a plain-value copy of a rank's communication counters,
// safe to marshal, diff, or ship across an API boundary.
type StatsSnapshot struct {
	Messages    int64                         `json:"messages"`
	Bytes       int64                         `json:"bytes"`
	Peers       []PeerSnapshot                `json:"peers,omitempty"`
	Collectives map[string]CollectiveSnapshot `json:"collectives,omitempty"`
}

// Snapshot captures the current counters. Kinds with zero calls are omitted
// from Collectives; Peers is nil when the per-peer breakdown is untracked.
func (s *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Messages: s.msgs.Load(),
		Bytes:    s.bytes.Load(),
	}
	if len(s.peers) > 0 {
		snap.Peers = make([]PeerSnapshot, len(s.peers))
		for i := range s.peers {
			snap.Peers[i] = PeerSnapshot{
				Messages: s.peers[i].msgs.Load(),
				Bytes:    s.peers[i].bytes.Load(),
			}
		}
	}
	for i := range s.colls {
		calls := s.colls[i].calls.Load()
		if calls == 0 {
			continue
		}
		if snap.Collectives == nil {
			snap.Collectives = make(map[string]CollectiveSnapshot, numCollectives)
		}
		snap.Collectives[collNames[i]] = CollectiveSnapshot{
			Calls: calls,
			Bytes: s.colls[i].bytes.Load(),
		}
	}
	return snap
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.msgs.Store(0)
	s.bytes.Store(0)
	for i := range s.peers {
		s.peers[i].msgs.Store(0)
		s.peers[i].bytes.Store(0)
	}
	for i := range s.colls {
		s.colls[i].calls.Store(0)
		s.colls[i].bytes.Store(0)
	}
}
