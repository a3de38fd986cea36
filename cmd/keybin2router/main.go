// Command keybin2router fronts N keybin2d shards as one logical
// clustering service. Producers POST /ingest at the router; a consistent
// hash on the X-Producer header pins each producer to one shard (keeping
// the daemon's per-producer dedupe exact), untagged traffic round-robins.
// On a cadence — or on demand via POST /merge — the router runs the
// histogram-merge collective: it pulls every live shard's binning
// histograms (GET /hist), folds them into one global state, refits a
// single global model with stable labels, and installs the identical
// model bytes on every shard (POST /hist/install). After a merge epoch,
// every shard answers /label exactly as a single daemon fed the whole
// stream would.
//
// Shard death is survivable by construction: a dead shard's hash range
// redistributes to survivors on the next request, merges proceed with
// whoever is up, and a recovered shard is re-admitted by the health loop
// and caught up to the current global model before it serves. The health
// loop runs the failure detector from internal/failover: -fail-after
// consecutive missed probes mark a shard down, -recover-after consecutive
// hits readmit it (flap hysteresis), and the probes of a round are spread
// by failover.Prober's jitter so they never land in lockstep.
//
// Usage:
//
//	keybin2router -shards http://h1:7420,http://h2:7420,http://h3:7420
//	              -dims 16 -range -10,10 [-addr :7410] [-trials 5]
//	              [-seed 1] [-depth 0] [-merge-every 10s]
//	              [-health-every 500ms] [-shard-timeout 10s]
//	              [-fail-after 2] [-recover-after 2]
//	              [-node-id id] [-log-level info] [-pprof] [-slow-span 50ms]
//
// The stream flags (-dims -range -trials -seed -depth) MUST match the
// shards' flags: the router re-derives the global model from the merged
// histograms, so a mismatch is a config error, caught at startup where
// possible. -range is required — congruent per-shard histograms are what
// make the merge exact.
//
// API:
//
//	POST /ingest  → proxied to the producer's shard (bounded failover)
//	POST /label   → proxied round-robin to any live shard
//	GET  /stats   → cluster aggregate + per-shard breakdown
//	GET  /ring    → hash-ring ownership, balance, liveness
//	POST /merge   → run one merge epoch now
//	GET  /metrics → Prometheus text exposition (keybin2router_* series)
//	GET  /trace   → recent distributed traces (proxy hops, merge epochs)
//	GET  /healthz → router liveness
//	GET  /readyz  → 200 when ≥ 1 shard is up
//	GET  /debug/pprof/* → runtime profiles (only with -pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"keybin2/internal/daemon"
	"keybin2/internal/obs"
	"keybin2/internal/shardcluster"
)

// routerOpts is the command line: most flags bind straight into the
// shardcluster.Config they configure; the rest need parsing first.
type routerOpts struct {
	daemon.Flags
	cfg      shardcluster.Config
	shards   string
	rawRange string
	nodeID   string
}

func main() {
	var o routerOpts
	cfg, sc := &o.cfg, &o.cfg.Stream
	o.Register(flag.CommandLine, ":7410")
	flag.StringVar(&o.shards, "shards", "", "comma-separated keybin2d base URLs (required, ≥ 1)")
	flag.IntVar(&sc.Dims, "dims", 0, "raw input dimensionality — must match the shards (required)")
	flag.IntVar(&sc.Trials, "trials", 5, "bootstrap projection trials — must match the shards")
	flag.Int64Var(&sc.Seed, "seed", 1, "random seed — must match the shards")
	flag.IntVar(&sc.Depth, "depth", 0, "binning tree depth — must match the shards")
	flag.StringVar(&o.rawRange, "range", "", "per-dimension bounds 'lo,hi' — required, must match the shards")
	flag.DurationVar(&cfg.MergeEvery, "merge-every", 10*time.Second, "merge-epoch cadence (0 = manual via POST /merge)")
	flag.DurationVar(&cfg.HealthEvery, "health-every", 500*time.Millisecond, "shard health-probe cadence")
	flag.DurationVar(&cfg.ShardTimeout, "shard-timeout", 10*time.Second, "per-shard request deadline")
	flag.IntVar(&cfg.FailThreshold, "fail-after", 2, "consecutive missed health probes before a shard is marked down")
	flag.IntVar(&cfg.RecoverThreshold, "recover-after", 2, "consecutive successful probes before a down shard is readmitted")
	flag.StringVar(&o.nodeID, "node-id", "", "stable router identity for logs (default: the run_id)")
	flag.Parse()

	if err := run(o, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "keybin2router:", err)
		os.Exit(1)
	}
}

func buildConfig(o routerOpts) (shardcluster.Config, error) {
	cfg := o.cfg
	if o.shards == "" {
		return cfg, fmt.Errorf("-shards is required")
	}
	if cfg.Stream.Dims <= 0 {
		return cfg, fmt.Errorf("-dims is required (got %d)", cfg.Stream.Dims)
	}
	if o.rawRange == "" {
		return cfg, fmt.Errorf("-range is required: predetermined bounds are what make shard histograms congruent and the merge exact")
	}
	var err error
	if cfg.Stream.RawRanges, err = daemon.ParseRange(o.rawRange, cfg.Stream.Dims); err != nil {
		return cfg, err
	}
	if cfg.FailThreshold < 1 || cfg.RecoverThreshold < 1 {
		return cfg, fmt.Errorf("-fail-after and -recover-after must be ≥ 1 (got %d/%d)", cfg.FailThreshold, cfg.RecoverThreshold)
	}
	for _, s := range strings.Split(o.shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.Shards = append(cfg.Shards, s)
		}
	}
	cfg.Stream.Period = 1 << 30 // the router refits on merge epochs, never on a point cadence
	cfg.EnablePprof = o.Pprof
	return cfg, nil
}

// run starts the router and blocks until a signal (or a close of stop,
// which tests use). When ready is non-nil it receives the bound address.
func run(o routerOpts, stop <-chan struct{}, ready chan<- net.Addr) error {
	cfg, err := buildConfig(o)
	if err != nil {
		return err
	}
	var logger *obs.Logger
	if cfg.RunID, logger, cfg.Tracer, err = o.Open(256); err != nil {
		return err
	}
	cfg.Logf = logger.Logf
	nodeID := o.nodeID
	if nodeID == "" {
		nodeID = cfg.RunID
	}

	r, err := shardcluster.New(cfg)
	if err != nil {
		return err
	}
	err = daemon.Run(o.Addr, daemon.Service{
		Handler: r.Handler(),
		Start:   r.Start,
		Stop:    func(context.Context) error { r.Stop(); return nil },
		Logger:  logger,
		Banner: []obs.Attr{
			obs.KV("node_id", nodeID), obs.KV("role", "router"),
			obs.KV("shards", len(cfg.Shards)),
			obs.KV("merge_every", cfg.MergeEvery), obs.KV("pprof", o.Pprof)},
	}, shutdownDeadline, stop, ready)
	if err == nil {
		logger.Info("stopped", obs.KV("merge_epoch", r.Epoch()))
	}
	return err
}

// shutdownDeadline bounds the HTTP shutdown and the router's stop.
const shutdownDeadline = 10 * time.Second
