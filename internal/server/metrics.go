package server

import (
	"sync/atomic"
	"time"

	"keybin2/internal/obs"
)

// telemetry bundles the serving core's instruments. Event-driven counters
// (accepted points, WAL appends, fsyncs) are incremented at the event
// site; externally-owned values (queue depth, stream state, WAL health)
// are copied into gauges by a scrape-time OnCollect hook, keeping the hot
// path free of anything but atomic adds.
type telemetry struct {
	reg *obs.Registry

	acceptedPoints *obs.Counter
	labeledPoints  *obs.Counter
	batchAccepted  *obs.Counter
	batchRejected  *obs.Counter
	batchDuplicate *obs.Counter
	batchError     *obs.Counter
	queueDepth     *obs.Gauge
	queueCap       *obs.Gauge
	pointsSeen     *obs.Gauge
	modelVersion   *obs.Gauge
	modelClusters  *obs.Gauge

	walAppends     *obs.Counter
	walAppendBytes *obs.Counter
	walFsyncs      *obs.Counter
	walFsyncSec    *obs.Histogram
	walRotations   *obs.Counter
	walLastSeq     *obs.Gauge
	walCoveredSeq  *obs.Gauge
	walSegments    *obs.Gauge
	walBytes       *obs.Gauge
	walReplayedB   *obs.Counter
	walReplayedP   *obs.Counter
	walGroupSize   *obs.Histogram
	walCoalesced   *obs.Counter

	ckpts    *obs.Counter
	ckptSec  *obs.Histogram
	stageSec obs.HistogramVec
	httpSec  obs.HistogramVec

	// Shard-cluster merge instruments (see shard.go).
	histExports    *obs.Counter
	histStateBytes *obs.Gauge
	histInstalls   *obs.Counter
	histInstallSec *obs.Histogram
	mergeEpoch     *obs.Gauge

	// Replica instruments; nil until the node first becomes a follower,
	// at boot or by demotion (they keep reporting after promotion — the
	// history is the point).
	replica atomic.Pointer[replicaGauges]

	// Failover / fencing instruments (see failover.go); always present —
	// any node can be promoted, fenced, or demoted over its lifetime, and
	// a demoted primary tails like any follower.
	tailReconnects    *obs.Counter
	clusterEpochG     *obs.Gauge
	fencedG           *obs.Gauge
	staleEpochRejects *obs.Counter
	promotions        *obs.Counter
	demotions         *obs.Counter
	fences            *obs.Counter
}

// fsyncBuckets resolve the latency band that matters for the durability
// dial: sub-100µs (battery-backed / fast NVMe) through tens of ms
// (contended spinning disk).
var fsyncBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
}

// replicaGauges are a follower's tail horizon and staleness bound.
type replicaGauges struct {
	appliedSeq, primarySeq, lagSec *obs.Gauge
}

func newTelemetry(runID string, fsync FsyncPolicy) *telemetry {
	reg := obs.NewRegistry()
	batches := reg.CounterVec("keybin2d_ingest_batches_total",
		"Ingest batches by outcome: accepted, rejected_backpressure, duplicate, or error.", "result")
	t := &telemetry{
		reg: reg,
		acceptedPoints: reg.Counter("keybin2d_ingest_accepted_points_total",
			"Points admitted to the ingest queue (WAL-logged when durability is on)."),
		labeledPoints: reg.Counter("keybin2d_label_points_total",
			"Points answered by /label."),
		batchAccepted:  batches.With("accepted"),
		batchRejected:  batches.With("rejected_backpressure"),
		batchDuplicate: batches.With("duplicate"),
		batchError:     batches.With("error"),
		queueDepth: reg.Gauge("keybin2d_ingest_queue_depth",
			"Batches waiting for the writer goroutine."),
		queueCap: reg.Gauge("keybin2d_ingest_queue_capacity",
			"Ingest queue capacity; depth at capacity means backpressure."),
		pointsSeen: reg.Gauge("keybin2d_points_seen",
			"Points applied to the stream, including checkpoint restore and WAL replay."),
		modelVersion: reg.Gauge("keybin2d_model_version",
			"Model generation (refit count); 0 means warmup, /label answers all-noise."),
		modelClusters: reg.Gauge("keybin2d_model_clusters",
			"Clusters in the currently published model."),
		walAppends: reg.Counter("keybin2d_wal_appends_total",
			"Records appended to the write-ahead log."),
		walAppendBytes: reg.Counter("keybin2d_wal_appended_bytes_total",
			"Framed bytes appended to the write-ahead log."),
		walFsyncs: reg.Counter("keybin2d_wal_fsyncs_total",
			"File data syncs performed by the WAL (appends, interval flushes, rotations)."),
		walFsyncSec: reg.Histogram("keybin2d_wal_fsync_seconds",
			"WAL fsync latency.", fsyncBuckets),
		walRotations: reg.Counter("keybin2d_wal_rotations_total",
			"WAL segment rotations."),
		walLastSeq: reg.Gauge("keybin2d_wal_last_seq",
			"Newest appended (or recovered) WAL sequence."),
		walCoveredSeq: reg.Gauge("keybin2d_wal_covered_seq",
			"Newest WAL sequence covered by a durable checkpoint."),
		walSegments: reg.Gauge("keybin2d_wal_segments",
			"Live WAL segment files."),
		walBytes: reg.Gauge("keybin2d_wal_bytes",
			"Total bytes across live WAL segments."),
		walReplayedB: reg.Counter("keybin2d_wal_replayed_batches_total",
			"Batches replayed from the WAL at startup."),
		walReplayedP: reg.Counter("keybin2d_wal_replayed_points_total",
			"Points replayed from the WAL at startup."),
		walGroupSize: reg.Histogram("keybin2d_wal_group_commit_batches",
			"Records made durable per group-commit fsync (led waits only).",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
		walCoalesced: reg.Counter("keybin2d_wal_fsyncs_coalesced_total",
			"Durability waits satisfied by an fsync another waiter led."),
		ckpts: reg.Counter("keybin2d_checkpoints_total",
			"Completed checkpoint writes."),
		ckptSec: reg.Histogram("keybin2d_checkpoint_seconds",
			"Checkpoint write duration (encode, durable write, WAL truncation).", nil),
		histExports: reg.Counter("keybin2d_hist_exports_total",
			"Shard-state exports served at GET /hist (merge collective pulls)."),
		histStateBytes: reg.Gauge("keybin2d_hist_state_bytes",
			"Size of the last exported shard state — the merge payload, bounded by bins, not points."),
		histInstalls: reg.Counter("keybin2d_merge_installs_total",
			"Global models installed via POST /hist/install."),
		histInstallSec: reg.Histogram("keybin2d_merge_install_seconds",
			"Global-model install duration (decode excluded; swap + bookkeeping).", nil),
		mergeEpoch: reg.Gauge("keybin2d_merge_epoch",
			"Newest cluster merge epoch installed on this shard (0 = serving the local model)."),
		clusterEpochG: reg.Gauge("keybin2d_cluster_epoch",
			"This node's fencing epoch (0 = unmanaged; raised by promote/fence/epoch)."),
		fencedG: reg.Gauge("keybin2d_fenced",
			"1 while this primary is fenced off the write path by a newer epoch."),
		staleEpochRejects: reg.Counter("keybin2d_stale_epoch_rejects_total",
			"Requests rejected with 412 stale epoch (zombie writes and fenced accepts)."),
		tailReconnects: reg.Counter("keybin2d_replica_tail_reconnects_total",
			"WAL tail connection attempts that followed a failure."),
		promotions: reg.Counter("keybin2d_promotions_total",
			"Follower-to-primary promotions completed by this process."),
		demotions: reg.Counter("keybin2d_demotions_total",
			"Primary-to-follower in-place demotions completed by this process."),
		fences: reg.Counter("keybin2d_fences_total",
			"Times this node was fenced at a new epoch while serving as primary."),
		stageSec: reg.HistogramVec("keybin2d_stage_seconds",
			"Pipeline stage durations reported by the stream (refit, warmup_init).", nil, "stage"),
		httpSec: reg.HistogramVec("keybin2d_http_request_seconds",
			"HTTP request latency by endpoint.", nil, "endpoint"),
	}
	reg.GaugeVec("keybin2d_build_info",
		"Constant 1; labels identify this daemon incarnation.", "run_id", "fsync").
		With(runID, string(fsync)).Set(1)
	return t
}

// exportReplica registers the replica gauges. transition calls it on
// every change that leaves the node a follower; registration is
// idempotent, so two racing calls store the same gauges.
func (t *telemetry) exportReplica() {
	if t.replica.Load() != nil {
		return
	}
	t.replica.Store(&replicaGauges{
		appliedSeq: t.reg.Gauge("keybin2d_replica_applied_seq",
			"Newest primary WAL sequence this replica has applied to its stream."),
		primarySeq: t.reg.Gauge("keybin2d_replica_primary_last_seq",
			"Primary's newest WAL sequence as of the replica's last tail round."),
		lagSec: t.reg.Gauge("keybin2d_replica_lag_seconds",
			"How long the replica has been behind the primary's horizon (0 = caught up)."),
	})
}

// installCollect registers the scrape-time hook that mirrors server state
// into gauges. Called once the Server exists; safe against concurrent
// scrapes because everything read here is atomic or internally locked.
func (t *telemetry) installCollect(s *Server) {
	t.queueCap.SetInt(int64(cap(s.queue)))
	t.reg.OnCollect(func() {
		t.queueDepth.SetInt(int64(len(s.queue)))
		t.pointsSeen.SetInt(s.seen.Load())
		t.modelVersion.SetInt(s.refits.Load())
		t.mergeEpoch.SetInt(s.mergeEpoch.Load())
		if m, _ := s.servingModel(); m != nil {
			t.modelClusters.SetInt(int64(m.K()))
		} else {
			t.modelClusters.Set(0)
		}
		if wal := s.wal.Load(); wal != nil {
			ws := wal.Stats()
			t.walLastSeq.SetInt(int64(ws.LastSeq))
			t.walCoveredSeq.SetInt(int64(s.coveredSeq.Load()))
			t.walSegments.SetInt(int64(ws.Segments))
			t.walBytes.SetInt(ws.Bytes)
		}
		if g := t.replica.Load(); g != nil {
			g.appliedSeq.SetInt(int64(s.appliedSeqA.Load()))
			g.primarySeq.SetInt(int64(s.primaryLastSeq.Load()))
			g.lagSec.Set(s.replicaLagSeconds())
		}
		r := s.role.Load()
		t.clusterEpochG.SetInt(r.epoch)
		if r.kind == roleFenced {
			t.fencedG.Set(1)
		} else {
			t.fencedG.Set(0)
		}
	})
}

// RecordStage implements obs.Recorder for the owned stream: stage timings
// land in the stage histogram, and — when the writer goroutine is inside
// apply() — as a span on the batch's trace, which is how a periodic refit
// shows up on the ingest batch that triggered it. Called only from the
// goroutine driving the stream (writer after Start, New before).
func (s *Server) RecordStage(stage string, d time.Duration) {
	s.tel.stageSec.With(stage).Observe(d.Seconds())
	if t := s.curTrace; t != nil {
		t.AddSpan(stage, time.Now().Add(-d), d)
	}
}
