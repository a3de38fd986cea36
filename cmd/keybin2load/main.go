// Command keybin2load drives the keybin2 serving tier from outside, in two
// modes.
//
// Load: it pushes synthetic mixture traffic at a RUNNING keybin2d (or
// keybin2router) through concurrent ingesters while hammering /label,
// and reports ingest throughput and query latency as JSON.
//
//	keybin2load -addr http://127.0.0.1:7420 [-points 100000] [-dims 16]
//	            [-batch 512] [-ingesters 4] [-query-workers 2] [-seed 1]
//	            [-o -] [-read-addrs URL,URL] [-producer-prefix load]
//
// -read-addrs splits the label queries across -addr and the given
// followers. -producer-prefix gives each ingest worker its own producer
// identity; a keybin2router partitions by producer, so that is what
// spreads the workers across its shards (its GET /stats, or keybin2top
// -router, shows the spread).
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
		timeout = flag.Duration("timeout", 10*time.Minute, "overall deadline")

		scenario     = flag.String("scenario", "", "chaos mode: run this internal/chaos scenario ("+strings.Join(chaos.Names(), " | ")+") instead of a load")
		cycles       = flag.Int("cycles", 1, "with -scenario crash | promote | failover: kill cycles")
		binDir       = flag.String("bin", ".", "with -scenario: directory holding the keybin2d, keybin2router and keybin2failover binaries")
		workDir      = flag.String("dir", "", "with -scenario: workdir for state and fleet.log (default: fresh temp dir, removed after)")
		cycleBatches = flag.Int("cycle-batches", 6, "with -scenario: batches acked per cycle before the kill")
		fsync        = flag.String("fsync", "always", "with -scenario: WAL fsync policy of the spawned daemons")
		replicas     = flag.Int("replicas", 2, "with -scenario: follower replicas per replica set")
		readAddrs    = flag.String("read-addrs", "", "comma-separated follower base URLs; label queries split across them and -addr")
		prodPrefix   = flag.String("producer-prefix", "", "per-worker producer id prefix; spreads workers across a router's hash ring")
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

	var reads []string
	if *readAddrs != "" {
		reads = strings.Split(*readAddrs, ",")
	}
	rep, err := client.RunLoad(ctx, client.New(*addr), client.LoadConfig{
		Points: *points, Dims: *dims, BatchSize: *batch,
		Ingesters: *ingest, QueryWorkers: *queryW, Seed: *seed,
		ReadAddrs: reads, ProducerPrefix: *prodPrefix,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "keybin2load:", err)
		os.Exit(1)
	}
	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "keybin2load:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ingest %.0f pts/s, query p50 %.2f ms p99 %.2f ms, %d refits, %d clusters\n",
		rep.IngestPointsPerSec, rep.QueryP50Ms, rep.QueryP99Ms, rep.FinalRefits, rep.FinalClusters)
}
