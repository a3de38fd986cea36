// Command keybin2top is the fleet observability plane: it scrapes
// /stats, /metrics, and /trace from every node of a keybin2 deployment
// (shards, a router, optionally a failover supervisor), reassembles
// cross-process distributed traces by trace ID, and renders one fleet
// snapshot — per-shard ingest rate and queue depth, replica lag,
// merge-epoch staleness, election downtime, p99 ingest latency.
//
// Usage:
//
//	keybin2top -nodes http://127.0.0.1:7421,http://127.0.0.1:7422
//	           [-router http://127.0.0.1:7420] [-supervisor http://127.0.0.1:7430]
//	           [-watch 2s] [-count 0] [-json] [-traces 8] [-timeout 3s]
//
// One-shot by default: scrape once, print, exit (rates are then
// accepted/uptime). -watch D re-scrapes every D, computing true delta
// rates over the interval and accumulating election downtime (wall time
// with no live unfenced primary); -count bounds the iterations (0 =
// until interrupted). -json emits the snapshot as JSON instead of the
// text table — the form CI and scripts consume.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"keybin2/internal/failover"
)

type options struct {
	nodes      []string
	router     string
	supervisor string
	watch      time.Duration
	count      int
	jsonOut    bool
	maxTraces  int
	timeout    time.Duration
}

func main() {
	var (
		nodes      = flag.String("nodes", "", "comma-separated keybin2d base URLs (shards or replicas)")
		router     = flag.String("router", "", "keybin2router base URL (scraped like a node; its traces join the assembly)")
		supervisor = flag.String("supervisor", "", "keybin2failover base URL (GET /status feeds the primary/epoch view)")
		watch      = flag.Duration("watch", 0, "re-scrape every interval (0 = one-shot)")
		count      = flag.Int("count", 0, "with -watch: stop after this many frames (0 = until interrupted)")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of the text table")
		maxTraces  = flag.Int("traces", 8, "max assembled trace trees per frame (0 = none)")
		timeout    = flag.Duration("timeout", 3*time.Second, "per-endpoint scrape timeout")
	)
	flag.Parse()

	o := options{
		router: strings.TrimRight(*router, "/"), supervisor: strings.TrimRight(*supervisor, "/"),
		watch: *watch, count: *count, jsonOut: *jsonOut, maxTraces: *maxTraces, timeout: *timeout,
	}
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimRight(strings.TrimSpace(n), "/"); n != "" {
			o.nodes = append(o.nodes, n)
		}
	}
	if len(o.nodes) == 0 && o.router == "" {
		fmt.Fprintln(os.Stderr, "keybin2top: -nodes (or at least -router) is required")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "keybin2top: %v\n", err)
		os.Exit(1)
	}
}

// run drives the scrape loop: one frame in one-shot mode, a frame per
// -watch interval otherwise. All frames go to w.
func run(ctx context.Context, o options, w io.Writer) error {
	sc := &scraper{hc: &http.Client{Timeout: o.timeout}}
	targets := o.nodes
	if o.router != "" {
		targets = append(append([]string{}, o.nodes...), o.router)
	}

	var (
		prev     map[string]int64
		lastAt   time.Time
		downtime float64
		frames   int
	)
	for {
		scrapes := make([]nodeScrape, len(targets))
		for i, u := range targets {
			scrapes[i] = sc.scrapeNode(ctx, u)
		}
		var sup *failover.Status
		if o.supervisor != "" {
			var st failover.Status
			if err := sc.getJSON(ctx, o.supervisor+"/status", &st); err == nil {
				sup = &st
			}
		}
		now := time.Now()
		var elapsed time.Duration
		if !lastAt.IsZero() {
			elapsed = now.Sub(lastAt)
		}
		snap := buildSnapshot(scrapes, sup, prev, elapsed, o.maxTraces, now)
		if elapsed > 0 && !snap.PrimaryUp {
			downtime += elapsed.Seconds()
		}
		snap.ElectionDowntimeSec = downtime

		if o.jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				return err
			}
		} else {
			renderTable(w, snap)
		}

		frames++
		if o.watch <= 0 || (o.count > 0 && frames >= o.count) {
			return nil
		}
		prev = make(map[string]int64, len(scrapes))
		for _, ns := range scrapes {
			if ns.Stats != nil {
				prev[ns.URL] = ns.Stats.Accepted
			}
		}
		lastAt = now
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(o.watch):
		}
	}
}

// renderTable prints the human form: a fleet rollup line, one row per
// shard, and the assembled cross-node traces.
func renderTable(w io.Writer, snap FleetSnapshot) {
	fmt.Fprintf(w, "keybin2top %s  shards %d/%d up  accepted %d  rate %.0f pts/s  merge epoch %d",
		snap.At, snap.ShardsUp, len(snap.Shards), snap.TotalAccepted, snap.TotalRatePtsSec, snap.MaxMergeEpoch)
	if snap.Primary != "" {
		fmt.Fprintf(w, "  primary %s (epoch %d, %d elections)", snap.Primary, snap.ClusterEpoch, snap.Elections)
	}
	if snap.ElectionDowntimeSec > 0 {
		fmt.Fprintf(w, "  downtime %.1fs", snap.ElectionDowntimeSec)
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tROLE\tUP\tACCEPTED\tRATE/S\tQUEUE\tEPOCH\tSTALE\tLAG_S\tP99_MS")
	for _, r := range snap.Shards {
		if !r.Up {
			fmt.Fprintf(tw, "%s\t-\tDOWN\t-\t-\t-\t-\t-\t-\t-\t(%s)\n", r.URL, r.Err)
			continue
		}
		p99 := "-"
		if r.P99IngestMs >= 0 {
			p99 = fmt.Sprintf("%.2f", r.P99IngestMs)
		}
		fmt.Fprintf(tw, "%s\t%s\tup\t%d\t%.0f\t%d/%d\t%d\t%d\t%.1f\t%s\n",
			r.URL, r.Role, r.Accepted, r.RatePtsSec, r.QueueLen, r.QueueCap,
			r.MergeEpoch, r.EpochStale, r.ReplicaLagSec, p99)
	}
	tw.Flush()

	if len(snap.TraceTrees) > 0 {
		fmt.Fprintln(w, "traces:")
		for _, ft := range snap.TraceTrees {
			fmt.Fprintf(w, "  %s  nodes=%d spans=%d max=%.1fms  %s\n",
				ft.TraceID, ft.Nodes, ft.Spans, ft.MaxDurUs/1000, strings.Join(ft.Hops, " → "))
		}
	}
	fmt.Fprintln(w)
}
