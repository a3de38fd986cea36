// Command keybin2d is the KeyBin2 in-situ clustering daemon: it owns a
// streaming clusterer, ingests batched point traffic over HTTP with
// backpressure, answers label/model/stats queries from an immutable model
// snapshot while refits run underneath, and checkpoints its state to disk
// so a restart resumes exactly where it stopped.
//
// Usage:
//
//	keybin2d -dims 16 [-addr :7420] [-trials 5] [-seed 1]
//	         [-warmup 500] [-period 1000] [-decay 0] [-depth 0]
//	         [-range lo,hi] [-queue-depth 64] [-max-batch 65536]
//	         [-retry-after 250ms] [-checkpoint state.kb2s]
//	         [-checkpoint-every 30s] [-drain-timeout 30s]
//	         [-wal-dir wal/] [-fsync always|interval|never]
//	         [-fsync-interval 100ms] [-wal-segment-bytes 4194304]
//	         [-log-level info] [-trace-log traces.jsonl] [-slow-span 50ms] [-pprof]
//	         [-follow http://primary:7420] [-follow-poll 2s]
//	         [-node-id id] [-shard name] [-epoch 0]
//
// API (binary batches are "KB2B" | dims u32 | count u32 | float64s, LE;
// read endpoints answer GET and HEAD only, write endpoints POST only,
// anything else is 405 with an Allow header):
//
//	POST /ingest  → 202 {"queued":n,"seq":s} | 429 queue full (Retry-After)
//	POST /label   → {"labels":[...],"model_gen":g,"clusters":k}
//	GET  /model   → encoded model (keybin2.DecodeModel) | 404 before first refit
//	GET  /stats   → ingest/refit/queue counters (+ WAL lag, run_id)
//	GET  /metrics → Prometheus text exposition
//	GET  /trace   → recent pipeline traces as JSON
//	GET  /healthz → ok (liveness)
//	GET  /readyz  → 200 | 503 (draining or wedged WAL)
//	GET  /wal     → the stored WAL records after ?from=<seq>, verbatim
//	               (replication; ?epoch=<e> is fenced like a write)
//	GET  /snapshot → newest checkpoint blob (follower bootstrap)
//	POST /promote → follower → primary promotion (?epoch=<e> mints or
//	               adopts a fencing epoch; see below)
//	POST /fence   → adopt a newer epoch: a follower re-points at
//	               ?primary=<url>, a primary is fenced off the write
//	               path (and demoted in place when ?primary is given)
//	POST /epoch   → primary-only epoch adoption (supervisor bootstrap)
//	GET  /hist    → cumulative shard histogram state (merge collective)
//	POST /hist/install?epoch=N → install the router's merged global model
//	GET  /debug/pprof/* → runtime profiles (only with -pprof)
//
// Logs are leveled key=value lines; every line carries a run_id unique to
// this daemon incarnation, which also appears in /stats and the
// keybin2d_build_info metric, so logs, scrapes, and crash-cycle restarts
// correlate. -trace-log additionally appends every finished pipeline
// trace as one JSON line to the named file.
//
// With -range the raw per-dimension bounds are predetermined (the paper's
// in-situ assumption) and the daemon serves labels from the first refit
// without a warmup buffer. SIGINT/SIGTERM drain gracefully: the listener
// stops, every accepted batch is applied, and a final checkpoint is
// written before exit.
//
// With -wal-dir every accepted batch is logged (and under -fsync always,
// fsynced) before the 202 ack, so even a kill -9 loses nothing that was
// acknowledged: on restart the daemon restores the newest checkpoint and
// replays the WAL tail past it. -wal-dir needs -checkpoint: only a
// checkpoint truncates the log, and without one a promoted follower's
// replicated prefix would live in memory alone.
//
// With -follow the daemon runs as a follower replica: it tails the
// primary's WAL, replays every acked batch into its own stream (stream
// flags must match the primary's), and serves reads while answering
// /ingest with 421 + the primary's URL. POST /promote turns it into a
// primary at its replayed horizon — with -wal-dir also set, the local WAL
// opens at that horizon and acks become durable again.
//
// Under a failover supervisor (cmd/keybin2failover) promotions carry
// monotone fencing epochs: a node at epoch E answers any request tokened
// with a NEWER epoch with 412 + {"error":"stale epoch",...} — the typed
// signal that it is a fenced zombie, not the primary. Epochs are
// deliberately not persisted; a restarted node rejoins at -epoch
// (default 0, unmanaged) and the supervisor re-fences it from the
// fleet's live epoch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/daemon"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

// daemonOpts is the command line: most flags bind straight into the
// server.Config they configure; the rest need validating or parsing first.
type daemonOpts struct {
	daemon.Flags
	cfg        server.Config
	rawRange   string
	drainAfter time.Duration
	traceLog   string
}

func main() {
	var o daemonOpts
	cfg, sc := &o.cfg, &o.cfg.Stream
	o.Register(flag.CommandLine, ":7420")
	flag.IntVar(&sc.Dims, "dims", 0, "raw input dimensionality (required)")
	flag.IntVar(&sc.Trials, "trials", 5, "bootstrap projection trials")
	flag.Int64Var(&sc.Seed, "seed", 1, "random seed (must match across restarts of the same checkpoint)")
	flag.IntVar(&sc.Warmup, "warmup", 0, "points buffered to establish ranges (0 = default 500; ignored with -range)")
	flag.IntVar(&sc.Period, "period", 0, "points between refits (0 = default 1000)")
	flag.Float64Var(&sc.DecayFactor, "decay", 0, "exponential forgetting factor in (0,1); 0 disables")
	flag.IntVar(&sc.Depth, "depth", 0, "binning tree depth (0 = stream default)")
	flag.StringVar(&o.rawRange, "range", "", "predetermined per-dimension bounds 'lo,hi' applied to every raw dim (skips warmup)")
	flag.IntVar(&cfg.QueueDepth, "queue-depth", 64, "pending ingest batches before backpressure")
	flag.IntVar(&cfg.MaxBatchPoints, "max-batch", 65536, "max points per batch")
	flag.DurationVar(&cfg.RetryAfter, "retry-after", 250*time.Millisecond, "backoff hint on backpressure rejections")
	flag.StringVar(&cfg.CheckpointPath, "checkpoint", "", "checkpoint file (enables periodic save + restore-on-start)")
	flag.DurationVar(&cfg.CheckpointEvery, "checkpoint-every", 30*time.Second, "checkpoint cadence")
	flag.DurationVar(&o.drainAfter, "drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "write-ahead-log directory (enables crash-safe acks + replay-on-start)")
	flag.StringVar(&cfg.Fsync, "fsync", "always", "WAL flush policy: always | interval | never")
	flag.DurationVar(&cfg.FsyncInterval, "fsync-interval", 100*time.Millisecond, "flush cadence under -fsync interval")
	flag.Int64Var(&cfg.WALSegmentBytes, "wal-segment-bytes", 4<<20, "WAL segment rotation threshold")
	flag.StringVar(&o.traceLog, "trace-log", "", "append finished pipeline traces as JSON lines to this file")
	flag.StringVar(&cfg.FollowURL, "follow", "", "run as a follower replica of the primary at this base URL (e.g. http://127.0.0.1:7420)")
	flag.DurationVar(&cfg.FollowPoll, "follow-poll", 2*time.Second, "long-poll wait against the primary's WAL tail when caught up")
	flag.StringVar(&cfg.NodeID, "node-id", "", "stable node identity for logs and /stats (default: the run_id, fresh per start)")
	flag.StringVar(&cfg.Shard, "shard", "", "shard label this node serves under a cluster router (informational)")
	flag.Int64Var(&cfg.Epoch, "epoch", 0, "initial fencing epoch (0 = unmanaged; a failover supervisor raises it)")
	flag.Parse()

	if err := run(o, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "keybin2d:", err)
		os.Exit(1)
	}
}

// buildConfig validates the CLI knobs into a server.Config. Misconfigured
// flag pairs fail here, before any socket is opened: in particular a refit
// period shorter than the warmup (core's typed StreamConfigError), a
// malformed -range, and -wal-dir without -checkpoint.
func buildConfig(o daemonOpts) (server.Config, error) {
	cfg := o.cfg
	if cfg.Stream.Dims <= 0 {
		return cfg, fmt.Errorf("-dims is required (got %d)", cfg.Stream.Dims)
	}
	if o.rawRange != "" {
		var err error
		if cfg.Stream.RawRanges, err = daemon.ParseRange(o.rawRange, cfg.Stream.Dims); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Stream.Validate(); err != nil {
		var sce *core.StreamConfigError
		if errors.As(err, &sce) {
			return cfg, fmt.Errorf("bad flags: %w", err)
		}
		return cfg, err
	}
	if _, err := server.ParseFsyncPolicy(cfg.Fsync); err != nil {
		return cfg, fmt.Errorf("bad flags: %w", err)
	}
	if cfg.WALDir != "" && cfg.CheckpointPath == "" {
		return cfg, fmt.Errorf("bad flags: -wal-dir needs -checkpoint (only a checkpoint truncates the WAL)")
	}
	if cfg.Epoch < 0 {
		return cfg, fmt.Errorf("-epoch must be ≥ 0 (got %d)", cfg.Epoch)
	}
	cfg.EnablePprof = o.Pprof
	return cfg, nil
}

// run starts the daemon and blocks until a signal (or a close of stop,
// which tests use) triggers the graceful drain: the listener stops, every
// accepted batch is applied, and a final checkpoint is written. When
// ready is non-nil it receives the bound listen address once serving.
func run(o daemonOpts, stop <-chan struct{}, ready chan<- net.Addr) error {
	cfg, err := buildConfig(o)
	if err != nil {
		return err
	}
	var logger *obs.Logger
	if cfg.RunID, logger, cfg.Tracer, err = o.Open(256); err != nil {
		return err
	}
	cfg.Logf = logger.Logf
	if o.traceLog != "" {
		f, err := os.OpenFile(o.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("trace log: %w", err)
		}
		defer f.Close()
		cfg.Tracer.SetLogSink(func(line []byte) { f.Write(line) })
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	err = daemon.Run(o.Addr, daemon.Service{
		Handler: srv.Handler(),
		Start:   srv.Start,
		Stop:    srv.Stop,
		Logger:  logger,
		Banner: []obs.Attr{
			obs.KV("node_id", srv.Stats().NodeID), obs.KV("shard", cfg.Shard),
			obs.KV("dims", cfg.Stream.Dims), obs.KV("queue", cfg.QueueDepth),
			obs.KV("checkpoint", cfg.CheckpointPath), obs.KV("wal_dir", cfg.WALDir), obs.KV("pprof", o.Pprof)},
	}, o.drainAfter, stop, ready)
	if err == nil {
		st := srv.Stats()
		logger.Info("drained",
			obs.KV("seen", st.Seen), obs.KV("refits", st.Refits), obs.KV("checkpoints", st.Checkpoints))
	}
	return err
}
