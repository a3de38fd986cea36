package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/daemon"
	"keybin2/internal/obs"
)

// Config tunes a keybin2d serving core.
type Config struct {
	// Stream configures the owned core.Stream. Stream.Dims is required.
	Stream core.StreamConfig
	// QueueDepth bounds the number of pending ingest batches (default 64).
	// A full queue rejects ingest with a retry-after hint instead of
	// blocking the producer — the in-situ contract is that a slow analysis
	// must never stall the simulation.
	QueueDepth int
	// MaxBatchPoints bounds the points accepted in one batch (default
	// 65536); larger batches are rejected before decoding their payload.
	MaxBatchPoints int
	// RetryAfter is the backoff hint returned with backpressure
	// rejections (default 250ms).
	RetryAfter time.Duration
	// CheckpointPath, when set, enables periodic stream checkpoints (and
	// restore-on-start when the file exists).
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence (default 30s; used only
	// when CheckpointPath is set). A final checkpoint is always written
	// during graceful shutdown.
	CheckpointEvery time.Duration
	// WALDir, when set, enables the write-ahead log: every accepted batch
	// is appended (and, per Fsync, flushed) before the 202 ack, and on
	// restart the tail past the newest checkpoint is replayed, so a
	// kill -9 loses nothing that was acknowledged.
	WALDir string
	// Fsync is the WAL flush policy: "always" (default — ack implies
	// stable storage), "interval" (flush every FsyncInterval), or
	// "never" (leave flushing to the OS).
	Fsync string
	// FsyncInterval is the flush cadence under Fsync="interval"
	// (default 100ms).
	FsyncInterval time.Duration
	// WALSegmentBytes triggers WAL segment rotation (default 4 MiB).
	WALSegmentBytes int64
	// FS is the filesystem the WAL and checkpoints write through
	// (default OSFS; tests inject faults).
	FS FS
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// Tracer stamps each accepted ingest batch with a trace recording the
	// ingest→WAL-append→fsync→enqueue→apply→refit chain, served at
	// GET /trace (default: a fresh 256-trace ring).
	Tracer *obs.Tracer
	// RunID identifies this daemon incarnation in /stats and the
	// build-info metric (default: a fresh obs.NewRunID()).
	RunID string
	// NodeID is this node's stable identity across restarts — what a shard
	// router or chaos harness addresses instead of inferring identity from
	// listen addresses. Unlike RunID it survives a restart. Defaults to
	// RunID (so a standalone daemon needs no flag).
	NodeID string
	// Shard names this node's shard assignment in a sharded cluster
	// (reported in /stats and the startup identity; empty standalone).
	Shard string
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool

	// FollowURL, when set, runs this daemon as a follower replica: it
	// tails the primary's WAL at the given base URL (GET /wal), replays
	// every record into its own stream, and serves /label /model /stats
	// /readyz from the replayed state while refusing /ingest with a typed
	// 421 redirect to the primary. The stream flags must match the
	// primary's exactly — replay is deterministic only under an identical
	// configuration. WALDir, when also set, stays closed until the
	// follower is promoted (POST /promote), at which point it opens at the
	// replayed horizon and the node starts accepting writes.
	FollowURL string
	// FollowPoll is the long-poll wait the follower requests from the
	// primary's tail endpoint when caught up (default 2s).
	FollowPoll time.Duration
	// FollowMaxBackoff caps the follower's reconnect backoff after a
	// failed or dropped tail connection (default 5s).
	FollowMaxBackoff time.Duration
	// Epoch is the node's initial fencing epoch (default 0 = unmanaged).
	// A failover supervisor raises it via /promote, /fence, or /epoch;
	// see failover.go for the fencing invariants.
	Epoch int64
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatchPoints <= 0 {
		c.MaxBatchPoints = 65536
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.FS == nil {
		c.FS = OSFS
	}
	c.RunID, c.Tracer = daemon.Identity(c.RunID, c.Tracer, 256)
	if c.NodeID == "" {
		c.NodeID = c.RunID
	}
	if c.FollowPoll <= 0 {
		c.FollowPoll = 2 * time.Second
	}
	if c.FollowMaxBackoff <= 0 {
		c.FollowMaxBackoff = 5 * time.Second
	}
	return c
}

// WALInfo is the durability block served inside Stats.
type WALInfo struct {
	WALStats
	// CoveredSeq is the newest WAL sequence a durable checkpoint covers;
	// LagRecords is how many acknowledged batches a crash right now would
	// have to replay (LastSeq - CoveredSeq).
	CoveredSeq uint64 `json:"covered_seq"`
	LagRecords uint64 `json:"lag_records"`
	Policy     string `json:"policy"`
	// ReplayedBatches/Points count what recovery replayed at startup.
	ReplayedBatches int64 `json:"replayed_batches"`
	ReplayedPoints  int64 `json:"replayed_points"`
}

// Stats is the counter snapshot served at /stats.
type Stats struct {
	// RunID identifies this daemon incarnation; it changes on every
	// restart, which is how clients and the chaos harness correlate
	// /stats snapshots, log lines, and metrics across a crash cycle.
	RunID string `json:"run_id,omitempty"`
	// NodeID is the stable node identity (Config.NodeID; survives
	// restarts, unlike RunID). Shard is the node's shard assignment when
	// part of a sharded cluster.
	NodeID string `json:"node_id,omitempty"`
	Shard  string `json:"shard,omitempty"`
	// MergeEpoch is the newest cluster merge epoch whose global model this
	// node has installed (0 = serving its local model). GlobalSeen is the
	// merged point count behind that model — cluster-wide, not this
	// shard's.
	MergeEpoch int64 `json:"merge_epoch,omitempty"`
	GlobalSeen int64 `json:"global_seen,omitempty"`
	// Seen is the number of points applied to the stream (including any
	// restored from a checkpoint or replayed from the WAL).
	Seen int64 `json:"seen"`
	// Accepted / Rejected count ingest points admitted to the queue and
	// batches refused for backpressure.
	Accepted        int64 `json:"accepted"`
	RejectedBatches int64 `json:"rejected_batches"`
	// Batches counts the batches this process applied to the stream:
	// live, replayed from the WAL, or tailed from a primary.
	Batches int64 `json:"batches"`
	// DuplicateBatches counts ingests acknowledged without re-applying
	// because their producer sequence was already accepted (client
	// retries after a lost ack).
	DuplicateBatches int64 `json:"duplicate_batches"`
	// Labeled counts points answered by /label.
	Labeled int64 `json:"labeled"`
	// Refits is the model generation: how many models this process has
	// published. 0 means /label still answers all-noise (warmup).
	Refits   int64 `json:"refits"`
	Clusters int   `json:"clusters"`
	QueueLen int   `json:"queue_len"`
	QueueCap int   `json:"queue_cap"`
	// Checkpoints counts completed checkpoint writes; LastCheckpointUnix
	// is the wall-clock second of the latest one (0 = never).
	Checkpoints        int64   `json:"checkpoints"`
	LastCheckpointUnix int64   `json:"last_checkpoint_unix"`
	Draining           bool    `json:"draining"`
	UptimeSec          float64 `json:"uptime_sec"`
	// Producers maps each producer id to its highest acknowledged batch
	// sequence — the client-visible half of the idempotency contract,
	// and what the chaos harness audits after a kill -9.
	Producers map[string]uint64 `json:"producers,omitempty"`
	// WAL is nil when the write-ahead log is disabled.
	WAL *WALInfo `json:"wal,omitempty"`
	// Role is "primary" or "follower". A promoted node reports "primary"
	// with Promoted set.
	Role     string `json:"role"`
	Promoted bool   `json:"promoted,omitempty"`
	// Epoch is the node's fencing epoch (0 = unmanaged); Fenced reports a
	// primary that has been fenced off the write path by a newer epoch.
	Epoch  int64 `json:"epoch,omitempty"`
	Fenced bool  `json:"fenced,omitempty"`
	// Primary is the upstream base URL while following.
	Primary string `json:"primary,omitempty"`
	// AppliedSeq is the newest WAL sequence applied to the stream — on a
	// primary that trails LastSeq by the queue depth, on a follower it is
	// the replication horizon.
	AppliedSeq uint64 `json:"applied_seq"`
	// PrimaryLastSeq (follower only) is the primary's newest WAL sequence
	// as of the last completed tail round; AppliedSeq catching up to it
	// means the replica is current.
	PrimaryLastSeq uint64 `json:"primary_last_seq,omitempty"`
	// TailReconnects (follower only) counts tail connection attempts that
	// followed a failure.
	TailReconnects int64 `json:"tail_reconnects,omitempty"`
	// ReplicaLagSeconds (follower only) is how long the replica has been
	// behind the primary's reported horizon (0 = caught up).
	ReplicaLagSeconds float64 `json:"replica_lag_seconds,omitempty"`
}

// ingestItem is one accepted batch in flight between the HTTP edge and
// the writer goroutine, tagged with its WAL sequence and the producer's
// idempotency key so apply() can track both. The batch owns its pooled
// wire buffer; apply() releases it after the stream has consumed it.
type ingestItem struct {
	batch    *Batch
	seq      uint64
	producer string
	pseq     uint64
	trace    *obs.Trace // in-flight batch trace; apply() finishes it
}

// Server is the serving core: one writer goroutine owning a core.Stream,
// a bounded ingest queue, and HTTP handlers that read only the stream's
// atomically-published model snapshot plus the server's atomic counters.
// Wire Handler() into an http.Server (or httptest) and call Start/Stop
// around it.
//
// Durability: with WALDir set, the accept path is WAL-append → enqueue
// inside one critical section (so WAL order equals apply order and
// nothing is acknowledged before it is logged), and then — under
// Fsync="always" — the 202 waits for WAL.WaitDurable outside the locks:
// concurrent producers coalesce onto one group-commit fsync, and the
// writer may already be applying the batch while its fsync is in flight.
// Checkpoints record the WAL position they cover (via the v2
// stream-checkpoint metadata) and sync the WAL first so coverage never
// outruns the disk; restart restores the checkpoint and replays only the
// uncovered tail.
type Server struct {
	cfg    Config
	fs     FS
	fsync  FsyncPolicy
	tel    *telemetry
	tracer *obs.Tracer

	// wal and stream are atomic pointers because follower promotion
	// installs a WAL (and a snapshot bootstrap replaces the stream) while
	// read handlers are live; on a plain primary both are stored once in
	// New and never change.
	wal    atomic.Pointer[WAL]
	stream atomic.Pointer[core.Stream]

	// curTrace is the batch trace the writer goroutine is currently
	// applying; RecordStage attaches stream-reported stage spans (refit)
	// to it. Owned by the goroutine driving the stream — never read
	// elsewhere.
	curTrace *obs.Trace

	queue chan ingestItem
	done  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	// Shard-cluster state (see shard.go). histC round-trips /hist requests
	// through the writer goroutine; globalModel is the merged cluster
	// model the read path prefers once a coordinator installs one.
	// mergeMu orders installs so epochs only move forward.
	histC       chan chan histResult
	globalModel atomic.Pointer[core.Model]
	globalSeen  atomic.Int64
	mergeEpoch  atomic.Int64
	mergeMu     sync.Mutex

	// Replica-set state (see role.go, replica.go and failover.go). role
	// turns primary at promotion (after the WAL pointer is installed) and
	// follower at demotion (after the WAL is closed); the serving loop
	// alternates between runLoop and followLoop on it. roleCh carries the
	// role changes that must run on that loop; nudge breaks a parked tail
	// long poll so a pending role change is observed immediately. The rest
	// is replication progress, not role.
	role           atomic.Pointer[role]
	roleCh         chan *roleReq
	nudge          chan struct{}
	appliedSeqA    atomic.Uint64 // mirrors appliedSeq for readers
	primaryLastSeq atomic.Uint64 // primary's lastSeq per the latest tail round
	behindSince    atomic.Int64  // unix nanos the replica fell behind (0 = caught up)

	// drainMu gates enqueues against shutdown: Stop takes the write lock
	// to flip draining, after which no handler can be inside the enqueue
	// critical section, so the writer's final drain sees every accepted
	// batch.
	drainMu  sync.RWMutex
	draining bool

	// ingestMu serializes the accept path: duplicate check, WAL append,
	// and queue insert happen atomically, which (a) makes WAL order the
	// apply order and (b) lets the queue-full check be exact — enqueuers
	// all hold this lock, so a passed check cannot be invalidated before
	// the insert.
	ingestMu  sync.Mutex
	lastSeen  map[string]uint64 // producer → highest acked sequence
	nextSeq   uint64            // last issued batch sequence (mirrors WAL)
	walHdrBuf []byte            // reusable WAL entry header (guarded by ingestMu)

	// Writer-goroutine state (touched only by run()/apply()/checkpoint()
	// and by New before Start): the WAL position applied to the stream
	// and the per-producer sequences those applies carried. Checkpoint
	// metadata snapshots both.
	appliedSeq       uint64
	appliedProducers map[string]uint64

	// The accepted, rejected, duplicate, labeled and checkpoint counts
	// live in tel's counters alone; Stats reads them there.
	seen       atomic.Int64 // mirrors stream.Seen() after each batch
	batches    atomic.Int64
	refits     atomic.Int64 // model generation: refitBase + stream.Refits()
	refitBase  int64        // 1 when a restored checkpoint carried a model
	lastCkpt   atomic.Int64
	coveredSeq atomic.Uint64 // newest WAL seq covered by a durable checkpoint
	replayedB  int64         // batches replayed from the WAL at startup
	replayedP  int64         // points replayed
	writerErr  atomic.Pointer[error]
}

// New builds a server around a fresh stream, or — when cfg.CheckpointPath
// names an existing file — around the stream restored from it, replaying
// the WAL tail past the checkpoint when cfg.WALDir is set. A corrupt or
// config-mismatched checkpoint, a corrupt WAL body, or a WAL that does not
// continue the checkpoint (WALStaleError: it ends before the covered seq;
// TailTruncatedError: it starts past it) is an error rather than a silent
// fresh start: the operator must decide whether to delete state.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Stream.Validate(); err != nil {
		return nil, err
	}
	fsyncPolicy, err := ParseFsyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:              cfg,
		fs:               cfg.FS,
		fsync:            fsyncPolicy,
		tel:              newTelemetry(cfg.RunID, fsyncPolicy),
		tracer:           cfg.Tracer,
		queue:            make(chan ingestItem, cfg.QueueDepth),
		histC:            make(chan chan histResult),
		done:             make(chan struct{}),
		roleCh:           make(chan *roleReq),
		nudge:            make(chan struct{}, 1),
		start:            time.Now(),
		lastSeen:         make(map[string]uint64),
		appliedProducers: make(map[string]uint64),
	}
	if _, _, err := s.transition(roleChange{op: opBoot, epoch: cfg.Epoch, target: cfg.FollowURL}); err != nil {
		return nil, err
	}
	if cfg.CheckpointPath != "" {
		if blob, rerr := cfg.FS.ReadFile(cfg.CheckpointPath); rerr == nil {
			if err := s.installCheckpoint(blob); err != nil {
				return nil, fmt.Errorf("server: restore %s: %w", cfg.CheckpointPath, err)
			}
		} else if !errors.Is(rerr, os.ErrNotExist) {
			return nil, fmt.Errorf("server: restore %s: %w", cfg.CheckpointPath, rerr)
		}
	}
	st := s.stream.Load()
	if st == nil {
		if st, err = core.NewStream(cfg.Stream); err != nil {
			return nil, err
		}
		st.SetRecorder(s)
		s.stream.Store(st)
	}
	s.coveredSeq.Store(s.appliedSeq)

	if cfg.FollowURL != "" {
		// Follower: no WAL of its own until promotion (cfg.WALDir is held
		// back for that moment); the local checkpoint restored above is
		// the resume point — the tail restarts at its covered sequence.
		s.behindSince.Store(time.Now().UnixNano())
	} else if cfg.WALDir != "" {
		if err := s.attachWAL(true); err != nil {
			return nil, err
		}
		s.nextSeq = s.appliedSeq
		s.tel.walReplayedB.Add(s.replayedB)
		s.tel.walReplayedP.Add(s.replayedP)
	}

	s.seen.Store(int64(st.Seen()))
	if s.refitBase == 1 {
		s.logf("restored %d points from %s", st.Seen(), cfg.CheckpointPath)
	}
	s.refits.Store(s.refitBase + int64(st.Refits()))
	s.tel.installCollect(s)
	return s, nil
}

// installCheckpoint makes a KB2S checkpoint blob the node's state: the
// stream, the WAL horizon it covers, and the producer idempotency horizon
// — the one restore path behind startup and follower snapshot bootstrap.
// A checkpoint that carries a model counts as generation 1, so /label
// answers from it at once and model_gen matches a primary restarted from
// the same state. Runs on the goroutine that owns the stream.
func (s *Server) installCheckpoint(blob []byte) error {
	st, metaBytes, err := core.DecodeStreamMeta(s.cfg.Stream, blob)
	if err != nil {
		return err
	}
	meta, err := decodeWALCkptMeta(metaBytes)
	if err != nil {
		return err
	}
	st.SetRecorder(s) // refit timings, including replay's, reach telemetry
	s.appliedSeq = meta.coveredSeq
	s.appliedSeqA.Store(meta.coveredSeq)
	s.appliedProducers = make(map[string]uint64, len(meta.producers))
	s.ingestMu.Lock()
	s.nextSeq = meta.coveredSeq
	for p, q := range meta.producers {
		s.appliedProducers[p] = q
		if s.lastSeen[p] < q {
			s.lastSeen[p] = q
		}
	}
	s.ingestMu.Unlock()
	s.refitBase = 0
	if st.Snapshot() != nil {
		s.refitBase = 1
	}
	s.refits.Store(s.refitBase + int64(st.Refits()))
	s.seen.Store(int64(st.Seen()))
	s.stream.Store(st)
	return nil
}

// attachWAL opens this node's log, levels it with the applied horizon
// and installs it: ForwardTo continues the numbering of a log that ends
// before the horizon, and replay applies what the log holds past it. At
// boot, a log that holds records yet ends before the checkpoint's covered
// seq lost acknowledged history and is refused (WALStaleError): replaying
// over that hole would be silent data loss. A promoted replica's own
// older log is not stale: replication carried the node past it.
func (s *Server) attachWAL(boot bool) error {
	wal, err := OpenWAL(s.walConfig())
	if err != nil {
		return err
	}
	if boot && wal.LastSeq() < s.appliedSeq && !wal.WasEmpty() {
		err = &WALStaleError{LastSeq: wal.LastSeq(), CoveredSeq: s.appliedSeq}
	} else if err = wal.ForwardTo(s.appliedSeq); err == nil {
		err = s.replayWAL(wal)
	}
	if err != nil {
		wal.Close()
		return err
	}
	s.wal.Store(wal)
	return nil
}

// walConfig is the one description of this node's write-ahead log, so a
// promoted follower opens its WAL with exactly the fsync policy, segment
// size and telemetry wiring a born primary does.
func (s *Server) walConfig() WALConfig {
	return WALConfig{
		Dir:          s.cfg.WALDir,
		FS:           s.cfg.FS,
		Fsync:        s.fsync,
		FsyncEvery:   s.cfg.FsyncInterval,
		SegmentBytes: s.cfg.WALSegmentBytes,
		Logf:         s.cfg.Logf,
		OnFsync: func(d time.Duration) {
			s.tel.walFsyncs.Inc()
			s.tel.walFsyncSec.Observe(d.Seconds())
		},
		OnRotate: func() { s.tel.walRotations.Inc() },
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start launches the serving-loop goroutine. Call exactly once.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.serve()
}

// Stop drains and shuts the serving core down: new ingests are refused,
// every batch already accepted is applied, a final checkpoint is written,
// the WAL is closed, and the writer exits. Callers must stop the HTTP
// listener first (so no handler is blocked mid-request) —
// http.Server.Shutdown, then Stop. The context bounds the drain; on
// expiry the writer is abandoned mid-queue and its remaining batches are
// lost from the live stream (they were acknowledged as queued — with a
// WAL they are still durable and will be replayed on the next start, so
// the timeout is reported as an error but not as data loss).
func (s *Server) Stop(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		close(s.done)
	}
	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown timed out with %d batches undrained: %w", len(s.queue), ctx.Err())
	}
	var walErr error
	if wal := s.wal.Load(); wal != nil {
		walErr = wal.Close()
	}
	if p := s.writerErr.Load(); p != nil {
		return *p
	}
	return walErr
}

// Stats returns the current counter snapshot. Safe from any goroutine.
func (s *Server) Stats() Stats {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	st := Stats{
		RunID:              s.cfg.RunID,
		NodeID:             s.cfg.NodeID,
		Shard:              s.cfg.Shard,
		MergeEpoch:         s.mergeEpoch.Load(),
		GlobalSeen:         s.globalSeen.Load(),
		Seen:               s.seen.Load(),
		Accepted:           s.tel.acceptedPoints.Value(),
		RejectedBatches:    s.tel.batchRejected.Value(),
		Batches:            s.batches.Load(),
		DuplicateBatches:   s.tel.batchDuplicate.Value(),
		Labeled:            s.tel.labeledPoints.Value(),
		Refits:             s.refits.Load(),
		QueueLen:           len(s.queue),
		QueueCap:           cap(s.queue),
		Checkpoints:        s.tel.ckpts.Value(),
		LastCheckpointUnix: s.lastCkpt.Load(),
		Draining:           draining,
		UptimeSec:          time.Since(s.start).Seconds(),
	}
	s.ingestMu.Lock()
	if len(s.lastSeen) > 0 {
		st.Producers = make(map[string]uint64, len(s.lastSeen))
		for p, q := range s.lastSeen {
			st.Producers[p] = q
		}
	}
	s.ingestMu.Unlock()
	if wal := s.wal.Load(); wal != nil {
		info := &WALInfo{
			WALStats:        wal.Stats(),
			CoveredSeq:      s.coveredSeq.Load(),
			Policy:          string(s.fsync),
			ReplayedBatches: s.replayedB,
			ReplayedPoints:  s.replayedP,
		}
		if info.LastSeq > info.CoveredSeq {
			info.LagRecords = info.LastSeq - info.CoveredSeq
		}
		st.WAL = info
	}
	st.AppliedSeq = s.appliedSeqA.Load()
	r := s.role.Load()
	st.Role = r.wireName()
	st.Epoch = r.epoch
	st.Fenced = r.kind == roleFenced
	if r.kind == roleFollower {
		st.Primary = r.primary
		st.PrimaryLastSeq = s.primaryLastSeq.Load()
		st.TailReconnects = s.tel.tailReconnects.Value()
		st.ReplicaLagSeconds = s.replicaLagSeconds()
	} else {
		st.Promoted = s.cfg.FollowURL != ""
	}
	if m, _ := s.servingModel(); m != nil {
		st.Clusters = m.K()
	}
	return st
}

// replicaLagSeconds reports how long the replica has been behind the
// primary's last reported horizon; 0 means caught up.
func (s *Server) replicaLagSeconds() float64 {
	since := s.behindSince.Load()
	if since == 0 {
		return 0
	}
	return time.Since(time.Unix(0, since)).Seconds()
}
