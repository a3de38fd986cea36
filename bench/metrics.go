package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary: BENCHMARK.json lists exactly these, README.md explains
// them, and a run fails if it does not emit every name of its mode.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd metrics are what a user of the system sees; every workload
// reports all of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pts_per_s", "points/s", "higher"},
	{"f1", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer metrics come from the traced run. A workload that bypasses a
// layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"core.fit_ms", "ms", "lower"},
	{"core.fit_dist_ms", "ms", "lower"},
	{"core.key_assign_ns_per_pt", "ns", "lower"},
	{"core.tuple_count_ns_per_pt", "ns", "lower"},
	{"mpi.bytes_per_fit", "B", "lower"},
	{"mpi.msgs_per_fit", "count", "lower"},
	{"core.ingest_batch_ns_per_pt", "ns", "lower"},
	{"core.refit_ms", "ms", "lower"},
	{"core.refits", "count", "lower"},
	{"core.assign_ns_per_pt", "ns", "lower"},
	{"core.stream_encode_ms", "ms", "lower"},
	{"core.stream_state_bytes", "B", "lower"},
	{"core.merge_fold_ms", "ms", "lower"},
	{"server.wire.encode_ns_per_pt", "ns", "lower"},
	{"server.wire.decode_ns_per_pt", "ns", "lower"},
	{"server.wal.append_us_per_batch", "us", "lower"},
	{"server.wal.wait_durable_us", "us", "lower"},
	{"server.wal.bytes_per_batch", "B", "lower"},
	{"server.wal.fsyncs", "count", "lower"},
	{"server.checkpoints", "count", "lower"},
	{"server.http.handler_us_per_batch", "us", "lower"},
	{"server.http.label_handler_us", "us", "lower"},
	{"server.http.edge_us_per_batch", "us", "lower"},
	{"server.queue.rejected_ratio", "ratio", "lower"},
	{"server.apply_drain_ms", "ms", "lower"},
	{"client.ingest_us_per_batch", "us", "lower"},
	{"client.label_us", "us", "lower"},
	{"client.retries", "count", "lower"},
	{"saturation.label_p50_ms", "ms", "lower"},
	{"paced.ack_p50_ms", "ms", "lower"},
	{"paced.ack_p99_ms", "ms", "lower"},
	{"paced.label_p50_ms", "ms", "lower"},
	{"paced.label_p99_ms", "ms", "lower"},
	{"paced.sched_late_p99_ms", "ms", "lower"},
	{"shardcluster.route_us_per_batch", "us", "lower"},
	{"shardcluster.label_route_us", "us", "lower"},
	{"shardcluster.merge_ms", "ms", "lower"},
	{"shardcluster.merge_state_bytes", "B", "lower"},
	{"shardcluster.merges", "count", "lower"},
	{"shardcluster.shard_skew", "ratio", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"obs.traced_pts_per_s", "points/s", "higher"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// report is one run's outcome. Every metric the run measured is kept
// (both tables), and the mode decides which table goes on the JSON line.
type report struct {
	workload string
	values   map[string]float64
	notes    map[string]string // e.g. which percentile a tail metric got
	// attempted and failed count operations (batches, queries, fits,
	// merges); merges run beside the senders, hence atomic.
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	checks []string // names (with detail) of failed correctness checks
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) {
	if unitOf(name) == "" {
		panic("bench: metric " + name + " is not in the tables")
	}
	r.values[name] = v
}

// failCheck records a failed correctness check by name.
func (r *report) failCheck(name, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks = append(r.checks, name+": "+fmt.Sprintf(format, args...))
}

// zeroMissing fills in 0 for the per-layer metrics of layers this
// workload bypasses, so that "bypassed" is a stated 0, not an absence.
func (r *report) zeroMissing(tab []metricDef) {
	for _, d := range tab {
		if _, ok := r.values[d.name]; !ok {
			r.values[d.name] = 0
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes every measured metric by name with its unit, the failed
// checks, and as the last line the JSON object the driver reads: the
// metrics of tab only.
func (r *report) print(w io.Writer, tab []metricDef) error {
	for _, d := range tab {
		if _, ok := r.values[d.name]; !ok {
			return fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if s := r.notes[n]; s != "" {
			note = "  (" + s + ")"
		}
		fmt.Fprintf(w, "%-34s %16.6g %s%s\n", n, r.values[n], unitOf(n), note)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "CHECK FAILED %s\n", c)
	}
	out := jsonResult{
		Correct: len(r.checks) == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: make(map[string]jsonMetric, len(tab)),
	}
	for _, d := range tab {
		out.Metrics[d.name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
