// Command keybin2failover is the replica-set control plane: it supervises
// one keybin2d primary and its followers, detects primary failure with a
// consecutive-miss detector (flap hysteresis, jittered probes), elects
// the most-caught-up live follower, promotes it under a freshly minted
// fencing epoch, and converges stragglers — a revived ex-primary is
// fenced and demoted in place into a follower of the new primary.
//
// The supervisor holds no durable state. On start it re-learns the
// cluster epoch from the fleet's /stats and adopts the best live
// unfenced primary (minting epoch 1 over an unmanaged group), so it can
// itself be killed and restarted at any time without disturbing the
// replica set.
//
// Usage:
//
//	keybin2failover -nodes http://a:7420,http://b:7421,http://c:7422
//	                [-addr :7430] [-probe-every 500ms] [-probe-timeout 2s]
//	                [-fail-after 3] [-recover-after 2]
//	                [-log-level info] [-pprof] [-slow-span 100ms]
//
// API:
//
//	GET /status  → cluster view: run_id, epoch, primary, per-node liveness
//	GET /metrics → Prometheus text exposition (keybin2failover_* series)
//	GET /trace   → recent probe-round traces (probe/converge spans)
//	GET /healthz → supervisor liveness
//	GET /debug/pprof/* → runtime profiles (only with -pprof)
//
// Election is deterministic: live followers ordered by highest replayed
// sequence, then lowest node id. A zombie whose applied horizon is AT OR
// BEHIND the elected primary's is demoted into its replica set; one that
// diverged past it is fenced off the write path and left for the
// operator — demoting it would discard acknowledged writes.
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
	"keybin2/internal/failover"
	"keybin2/internal/obs"
)

// supervisorOpts is the command line: every flag but -nodes binds
// straight into the failover.Config it configures.
type supervisorOpts struct {
	daemon.Flags
	cfg   failover.Config
	nodes string
}

func main() {
	var o supervisorOpts
	cfg := &o.cfg
	o.Register(flag.CommandLine, ":7430")
	flag.StringVar(&o.nodes, "nodes", "", "comma-separated keybin2d base URLs of the replica set (required, ≥ 1)")
	flag.DurationVar(&cfg.ProbeEvery, "probe-every", 500*time.Millisecond, "probe-round cadence")
	flag.DurationVar(&cfg.ProbeTimeout, "probe-timeout", 2*time.Second, "per-node probe deadline (control calls get 5x)")
	flag.IntVar(&cfg.FailAfter, "fail-after", 3, "consecutive missed probes before a node is declared down")
	flag.IntVar(&cfg.RecoverAfter, "recover-after", 2, "consecutive successful probes before a down node is readmitted")
	flag.Parse()

	if err := run(o, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "keybin2failover:", err)
		os.Exit(1)
	}
}

func buildConfig(o supervisorOpts) (failover.Config, error) {
	cfg := o.cfg
	for _, n := range strings.Split(o.nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			cfg.Nodes = append(cfg.Nodes, n)
		}
	}
	if len(cfg.Nodes) == 0 {
		return cfg, fmt.Errorf("-nodes is required")
	}
	if cfg.FailAfter < 1 || cfg.RecoverAfter < 1 {
		return cfg, fmt.Errorf("-fail-after and -recover-after must be ≥ 1 (got %d/%d)", cfg.FailAfter, cfg.RecoverAfter)
	}
	cfg.EnablePprof = o.Pprof
	return cfg, nil
}

// run starts the supervisor and blocks until a signal (or a close of
// stop, which tests use). When ready is non-nil it receives the bound
// listen address once serving.
func run(o supervisorOpts, stop <-chan struct{}, ready chan<- net.Addr) error {
	cfg, err := buildConfig(o)
	if err != nil {
		return err
	}
	var logger *obs.Logger
	if cfg.RunID, logger, cfg.Tracer, err = o.Open(128); err != nil {
		return err
	}
	cfg.Logf = logger.Logf

	sup, err := failover.New(cfg)
	if err != nil {
		return err
	}
	err = daemon.Run(o.Addr, daemon.Service{
		Handler: sup.Handler(),
		Start:   sup.Start,
		Stop:    func(context.Context) error { sup.Stop(); return nil },
		Logger:  logger,
		Banner: []obs.Attr{
			obs.KV("role", "failover-supervisor"),
			obs.KV("nodes", len(cfg.Nodes)), obs.KV("probe_every", cfg.ProbeEvery),
			obs.KV("fail_after", cfg.FailAfter), obs.KV("recover_after", cfg.RecoverAfter),
			obs.KV("pprof", o.Pprof)},
	}, shutdownDeadline, stop, ready)
	if err == nil {
		st := sup.Status()
		logger.Info("stopped",
			obs.KV("cluster_epoch", st.ClusterEpoch), obs.KV("primary", st.Primary),
			obs.KV("elections", st.Elections), obs.KV("fences", st.Fences))
	}
	return err
}

// shutdownDeadline bounds the HTTP shutdown and the supervisor's stop.
const shutdownDeadline = 10 * time.Second
