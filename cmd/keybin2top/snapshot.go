package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/failover"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

// nodeScrape is one node's raw observability surface: its /stats JSON,
// /metrics exposition (flattened by obs.ParseExposition), and /trace ring
// buffer. Err is set (and the rest zero) when the node is unreachable —
// a down shard is a row in the snapshot, not a scrape failure.
type nodeScrape struct {
	URL     string
	Stats   *server.Stats
	Metrics map[string]float64
	Traces  []obs.TraceJSON
	Err     string
}

// scraper pulls the fleet's observability endpoints, each call under
// the per-endpoint timeout its http.Client carries.
type scraper struct {
	hc *http.Client
}

// getJSON fetches the endpoints internal/client has no method for: /trace
// and the supervisor's /status.
func (s *scraper) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeNode pulls one daemon's /stats, /metrics, and /trace. Stats
// failing makes the node a down row; metrics/trace failures degrade to
// partial data (an old daemon without /trace still renders).
func (s *scraper) scrapeNode(ctx context.Context, base string) nodeScrape {
	ns := nodeScrape{URL: base}
	c := client.NewWithHTTPClient(base, s.hc)
	st, err := c.Stats(ctx)
	if err != nil {
		ns.Err = err.Error()
		return ns
	}
	ns.Stats = &st
	if m, err := c.Metrics(ctx); err == nil {
		ns.Metrics = m
	}
	var ring struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := s.getJSON(ctx, base+"/trace", &ring); err == nil {
		ns.Traces = ring.Traces
	}
	return ns
}

// ShardRow is one node's line in the fleet snapshot.
type ShardRow struct {
	URL    string `json:"url"`
	NodeID string `json:"node_id,omitempty"`
	Role   string `json:"role,omitempty"`
	Up     bool   `json:"up"`
	// Accepted is the node's cumulative accepted-point counter;
	// RatePtsSec is points/sec — a delta over the watch interval, or
	// accepted/uptime on a one-shot snapshot.
	Accepted   int64   `json:"accepted"`
	RatePtsSec float64 `json:"ingest_rate_pts_sec"`
	QueueLen   int     `json:"queue_len"`
	QueueCap   int     `json:"queue_cap"`
	// MergeEpoch is the newest global model this node serves;
	// EpochStale is how many epochs it trails the fleet maximum.
	MergeEpoch int64 `json:"merge_epoch"`
	EpochStale int64 `json:"merge_epoch_staleness"`
	// ReplicaLagSec is nonzero on a follower behind its primary.
	ReplicaLagSec float64 `json:"replica_lag_seconds,omitempty"`
	// P99IngestMs is the p99 ingest-request latency from the node's
	// keybin2d_http_request_seconds histogram (-1 = no data).
	P99IngestMs float64 `json:"p99_ingest_ms"`
	Traces      int     `json:"traces"`
	Err         string  `json:"error,omitempty"`
}

// FleetTrace is one distributed trace reassembled across node ring
// buffers: every per-process trace sharing a trace ID, grouped.
type FleetTrace struct {
	TraceID string `json:"trace_id"`
	// Hops are the per-process traces, "<node-url>:<root-name>", in scrape
	// order; Nodes is how many distinct processes contributed.
	Hops  []string `json:"hops"`
	Nodes int      `json:"nodes"`
	Spans int      `json:"spans"`
	// MaxDurUs is the slowest hop's duration.
	MaxDurUs float64 `json:"max_dur_us"`
}

// FleetSnapshot is one keybin2top frame: the cluster rollup, per-shard
// rows, supervisor view, and cross-node trace assembly.
type FleetSnapshot struct {
	At       string     `json:"at"`
	Shards   []ShardRow `json:"shards"`
	ShardsUp int        `json:"shards_up"`
	// TotalAccepted / TotalRatePtsSec roll up the shard rows.
	TotalAccepted   int64   `json:"total_accepted"`
	TotalRatePtsSec float64 `json:"total_rate_pts_sec"`
	// MaxMergeEpoch is the newest merge epoch anywhere in the fleet — the
	// staleness baseline.
	MaxMergeEpoch int64 `json:"max_merge_epoch"`
	// Supervisor view (zero when no -supervisor was given).
	ClusterEpoch int64  `json:"cluster_epoch,omitempty"`
	Primary      string `json:"primary,omitempty"`
	Elections    int64  `json:"elections,omitempty"`
	// PrimaryUp reports whether some live node is an unfenced primary;
	// ElectionDowntimeSec accumulates watch intervals where none was.
	PrimaryUp           bool    `json:"primary_up"`
	ElectionDowntimeSec float64 `json:"election_downtime_sec"`

	TraceTrees []FleetTrace `json:"trace_trees,omitempty"`
}

// p99FromBuckets reads the p99 latency (seconds) out of a cumulative
// Prometheus bucket family for one endpoint label. -1 when the family is
// absent or empty.
func p99FromBuckets(metrics map[string]float64, family, endpoint string) float64 {
	prefix := family + `_bucket{endpoint="` + endpoint + `",le="`
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	var inf float64
	haveInf := false
	for k, v := range metrics {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(k[len(prefix):], `"}`)
		if leStr == "+Inf" {
			inf, haveInf = v, true
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le: le, cum: v})
	}
	if !haveInf || inf == 0 {
		return -1
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	target := 0.99 * inf
	for _, b := range bs {
		if b.cum >= target {
			return b.le
		}
	}
	return bs[len(bs)-1].le // p99 landed in +Inf; report the largest bound
}

// assembleTraces groups every scraped per-process trace by trace ID and
// keeps the cross-node ones first — a trace seen on two processes is the
// distributed-tracing payoff; a single-node one is just local history.
func assembleTraces(scrapes []nodeScrape, max int) []FleetTrace {
	type agg struct {
		ft    FleetTrace
		nodes map[string]bool
	}
	byID := map[string]*agg{}
	var order []string
	for _, ns := range scrapes {
		for _, tr := range ns.Traces {
			if tr.TraceID == "" {
				continue
			}
			a := byID[tr.TraceID]
			if a == nil {
				a = &agg{ft: FleetTrace{TraceID: tr.TraceID}, nodes: map[string]bool{}}
				byID[tr.TraceID] = a
				order = append(order, tr.TraceID)
			}
			a.ft.Hops = append(a.ft.Hops, ns.URL+":"+tr.Name)
			a.nodes[ns.URL] = true
			a.ft.Spans += 1 + len(tr.Spans)
			if tr.DurUs > a.ft.MaxDurUs {
				a.ft.MaxDurUs = tr.DurUs
			}
		}
	}
	out := make([]FleetTrace, 0, len(order))
	for _, id := range order {
		a := byID[id]
		a.ft.Nodes = len(a.nodes)
		out = append(out, a.ft)
	}
	// Cross-node traces first, then widest, preserving scrape order within
	// ties (newest-first per node ring).
	// Cross-node trees first, slowest first within a tier, trace ID as
	// the final tiebreak — the cap below must cut deterministically.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Nodes != out[j].Nodes {
			return out[i].Nodes > out[j].Nodes
		}
		if out[i].MaxDurUs != out[j].MaxDurUs {
			return out[i].MaxDurUs > out[j].MaxDurUs
		}
		return out[i].TraceID < out[j].TraceID
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// buildSnapshot folds raw scrapes into one fleet frame. prev is the
// previous frame's scrapes (nil on the first/one-shot frame) and elapsed
// the wall time since, for delta rates.
func buildSnapshot(scrapes []nodeScrape, sup *failover.Status, prev map[string]int64, elapsed time.Duration, maxTraces int, now time.Time) FleetSnapshot {
	snap := FleetSnapshot{At: now.UTC().Format(time.RFC3339)}
	for _, ns := range scrapes {
		row := ShardRow{URL: ns.URL, P99IngestMs: -1}
		if ns.Stats == nil {
			row.Err = ns.Err
			snap.Shards = append(snap.Shards, row)
			continue
		}
		st := ns.Stats
		row.Up = true
		row.NodeID = st.NodeID
		row.Role = st.Role
		row.Accepted = st.Accepted
		row.QueueLen = st.QueueLen
		row.QueueCap = st.QueueCap
		row.MergeEpoch = st.MergeEpoch
		row.ReplicaLagSec = st.ReplicaLagSeconds
		row.Traces = len(ns.Traces)
		if prevAccepted, ok := prev[ns.URL]; ok && elapsed > 0 {
			row.RatePtsSec = float64(st.Accepted-prevAccepted) / elapsed.Seconds()
		} else if st.UptimeSec > 0 {
			row.RatePtsSec = float64(st.Accepted) / st.UptimeSec
		}
		if ns.Metrics != nil {
			if p99 := p99FromBuckets(ns.Metrics, "keybin2d_http_request_seconds", "ingest"); p99 >= 0 {
				row.P99IngestMs = p99 * 1000
			}
		}
		snap.ShardsUp++
		snap.TotalAccepted += st.Accepted
		snap.TotalRatePtsSec += row.RatePtsSec
		if st.MergeEpoch > snap.MaxMergeEpoch {
			snap.MaxMergeEpoch = st.MergeEpoch
		}
		if st.Role == "primary" && !st.Fenced {
			snap.PrimaryUp = true
		}
		snap.Shards = append(snap.Shards, row)
	}
	for i := range snap.Shards {
		if snap.Shards[i].Up {
			snap.Shards[i].EpochStale = snap.MaxMergeEpoch - snap.Shards[i].MergeEpoch
		}
	}
	if sup != nil {
		snap.ClusterEpoch = sup.ClusterEpoch
		snap.Primary = sup.Primary
		snap.Elections = sup.Elections
	}
	snap.TraceTrees = assembleTraces(scrapes, maxTraces)
	return snap
}
