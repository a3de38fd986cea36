// Command keybin2load drives the keybin2 serving tier from outside, in two
// modes.
//
// Load: it pushes synthetic mixture traffic at a RUNNING keybin2d (or
// keybin2router) through concurrent ingesters while hammering /label,
// and reports ingest throughput and query latency as JSON.
//
//	keybin2load -addr http://127.0.0.1:7420 [-points 100000] [-dims 16]
//	            [-batch 512] [-ingesters 4] [-query-workers 2] [-seed 1]
//	            [-o -] [-probe labels.json] [-no-load]
//	            [-read-addrs URL,URL] [-cluster] [-producer-prefix load]
//
// -cluster points the run at a keybin2router instead of a daemon: each
// ingest worker gets its own producer identity (so the router's hash
// ring spreads them across shards) and the report gains a per-shard
// distribution block — batches/points per shard and the ring's balance
// coefficient.
//
// -probe exercises restart consistency: it labels a deterministic probe
// batch and writes the labels to the given file — or, when the file
// already exists, compares against the stored labels and exits nonzero on
// any mismatch. Run with -probe before killing the daemon and again (with
// -no-load) after restarting from its checkpoint to assert the restored
// model labels identically.
//
// Chaos: -scenario NAME runs one row of the internal/chaos scenario table
// — the same table `go test ./internal/chaos` runs at its smallest size —
// over daemons the tool spawns itself from the binaries in -bin, and
// fails loudly at the first broken invariant, with the tail of the fleet
// log. It prints the scenario's report as JSON.
//
//	keybin2load -scenario crash -cycles 20 -bin /tmp [-fsync interval]
//	            [-dims 8] [-batch 256] [-cycle-batches 6] [-replicas 2]
//	            [-points 20000] [-seed 1] [-dir workdir]
//
// The scenarios (DESIGN.md "Chaos scenarios" has fleet shape, fault and
// invariants for each): crash — kill -9 one WAL'd daemon mid-ingest
// -cycles times, no acked batch lost; promote — kill -9 the primary of a
// replica set, promote a follower by hand; failover — the same kill under
// a keybin2failover supervisor, writes must resume by election alone and
// the revived zombie is fenced and demoted; restart — graceful stop and
// restore under real load with a follower; supervisor — the election
// watched over the standalone supervisor's HTTP surface; shards — a
// router over three shards loses one to kill -9, merges degraded and
// takes it back.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"keybin2/internal/chaos"
	"keybin2/internal/client"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:7420", "daemon base URL")
		points  = flag.Int("points", 100000, "points to ingest")
		dims    = flag.Int("dims", 16, "point dimensionality (must match daemon)")
		batch   = flag.Int("batch", 512, "points per ingest batch")
		ingest  = flag.Int("ingesters", 4, "concurrent ingest workers")
		queryW  = flag.Int("query-workers", 2, "concurrent /label workers during ingest")
		seed    = flag.Int64("seed", 1, "synthetic data seed")
		out     = flag.String("o", "-", "load report JSON path ('-' for stdout)")
		probe   = flag.String("probe", "", "probe-labels file: write if absent, compare if present")
		noLoad  = flag.Bool("no-load", false, "skip the load phase (probe/stats only)")
		timeout = flag.Duration("timeout", 10*time.Minute, "overall deadline")
		probeN  = flag.Int("probe-points", 256, "points in the consistency probe")

		scenario     = flag.String("scenario", "", "chaos mode: run this internal/chaos scenario ("+strings.Join(chaos.Names(), " | ")+") instead of a load")
		cycles       = flag.Int("cycles", 1, "with -scenario crash | promote | failover: kill cycles")
		binDir       = flag.String("bin", ".", "with -scenario: directory holding the keybin2d, keybin2router and keybin2failover binaries")
		workDir      = flag.String("dir", "", "with -scenario: workdir for state and fleet.log (default: fresh temp dir, removed after)")
		cycleBatches = flag.Int("cycle-batches", 6, "with -scenario: batches acked per cycle before the kill")
		fsync        = flag.String("fsync", "always", "with -scenario: WAL fsync policy of the spawned daemons")
		replicas     = flag.Int("replicas", 2, "with -scenario: follower replicas per replica set")
		readAddrs    = flag.String("read-addrs", "", "comma-separated follower base URLs; label queries split across them and -addr")
		clusterMode  = flag.Bool("cluster", false, "-addr is a keybin2router: tag each ingester as its own producer and report the per-shard distribution")
		prodPrefix   = flag.String("producer-prefix", "", "per-worker producer id prefix (default with -cluster: \"load\"); spreads workers across a router's hash ring")
	)
	flag.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *scenario != "" {
		rep, err := chaos.Run(ctx, *scenario, chaos.Config{
			Bin: *binDir, Dir: *workDir, Cycles: *cycles, Replicas: *replicas,
			Dims: *dims, Batch: *batch, PerCycle: *cycleBatches, Points: *points,
			Seed: *seed, Fsync: *fsync,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "keybin2load: %s: %v\n", *scenario, err)
			os.Exit(1)
		}
		enc, _ := json.MarshalIndent(rep, "", "  ")
		os.Stdout.Write(append(enc, '\n'))
		fmt.Fprintf(os.Stderr, "%s: %d cycles, %d points acked, 0 lost; %d probe labels stable\n",
			*scenario, rep.Cycles, rep.PointsAcked, rep.ProbeLabels)
		return
	}

	c := client.New(*addr)
	if !*noLoad {
		var reads []string
		if *readAddrs != "" {
			reads = strings.Split(*readAddrs, ",")
		}
		prefix := *prodPrefix
		if prefix == "" && *clusterMode {
			prefix = "load" // a router partitions by producer; workers need distinct ids
		}
		rep, err := client.RunLoad(ctx, c, client.LoadConfig{
			Points: *points, Dims: *dims, BatchSize: *batch,
			Ingesters: *ingest, QueryWorkers: *queryW, Seed: *seed,
			ReadAddrs: reads, ProducerPrefix: prefix,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "keybin2load:", err)
			os.Exit(1)
		}
		full := loadOutput{LoadReport: rep}
		if *clusterMode {
			cl, err := clusterDistribution(ctx, *addr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "keybin2load: cluster stats:", err)
			} else {
				full.Cluster = cl
			}
		}
		enc, _ := json.MarshalIndent(full, "", "  ")
		enc = append(enc, '\n')
		if *out == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "keybin2load:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ingest %.0f pts/s, query p50 %.2f ms p99 %.2f ms, %d refits, %d clusters\n",
			rep.IngestPointsPerSec, rep.QueryP50Ms, rep.QueryP99Ms, rep.FinalRefits, rep.FinalClusters)
		if full.Cluster != nil {
			fmt.Fprintf(os.Stderr, "cluster: %d/%d shards up, merge epoch %d, ring balance cv %.3f\n",
				full.Cluster.ShardsUp, full.Cluster.Shards, full.Cluster.MergeEpoch, full.Cluster.BalanceCV)
		}
	}
	if *probe != "" {
		if err := runProbe(ctx, c, *probe, *dims, *probeN, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "keybin2load:", err)
			os.Exit(1)
		}
	}
}

// probeRecord pins a deterministic batch's labels to disk so a second run
// can assert the daemon (possibly restarted from a checkpoint) still
// labels the same points the same way.
type probeRecord struct {
	Seed     int64 `json:"seed"`
	Dims     int   `json:"dims"`
	Labels   []int `json:"labels"`
	ModelGen int64 `json:"model_gen"`
}

func runProbe(ctx context.Context, c *client.Client, path string, dims, n int, seed int64) error {
	res, err := c.Label(ctx, chaos.Probe(dims, n, seed))
	if err != nil {
		return err
	}
	if prev, err := os.ReadFile(path); err == nil {
		var want probeRecord
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("probe file %s: %w", path, err)
		}
		if want.Seed != seed || want.Dims != dims || len(want.Labels) != len(res.Labels) {
			return fmt.Errorf("probe file %s was written with different flags", path)
		}
		mismatch := 0
		for i := range want.Labels {
			if want.Labels[i] != res.Labels[i] {
				mismatch++
			}
		}
		if mismatch > 0 {
			return fmt.Errorf("probe: %d of %d labels changed across restart (gen %d → %d)",
				mismatch, len(want.Labels), want.ModelGen, res.ModelGen)
		}
		fmt.Fprintf(os.Stderr, "probe: %d labels consistent (gen %d → %d)\n",
			len(want.Labels), want.ModelGen, res.ModelGen)
		return nil
	}
	rec := probeRecord{Seed: seed, Dims: dims, Labels: res.Labels, ModelGen: res.ModelGen}
	enc, _ := json.MarshalIndent(rec, "", "  ")
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "probe: wrote %d labels (gen %d) to %s\n", len(res.Labels), res.ModelGen, path)
	return nil
}
