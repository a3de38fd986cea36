package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"keybin2/internal/xrand"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.median / statistics.quantiles(v, n=4) of the same lists.
	cases := []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1.0, 1.1, 0.9, 1.3, 1.05, 0.95, 1.2, 1.0, 1.15, 0.85}, 1.025, 0.9375, 1.1625},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.v...)
		if got := median(c.v); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.v, got, c.med)
		}
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
		for i := range in {
			if in[i] != c.v[i] {
				t.Fatalf("input reordered: %v", c.v)
			}
		}
	}
}

// A throughput is taken over rounds: slow rounds (a neighbour's bursts
// on a shared box) must not move it, and in a traced run the rounds with
// the recorder on are kept apart.
func TestTimedRoundsRateAndAlternation(t *testing.T) {
	rec := newRecorder("t")
	rec.on.Store(true)
	var recorderOn []bool
	round := func(int) (float64, error) {
		recorderOn = append(recorderOn, rec.on.Load())
		if len(recorderOn) == 5 {
			return 100, nil // the bad round
		}
		return 1000, nil
	}
	plain, traced, err := timedRounds(rec, 0, false, 9, 0, round)
	if err != nil || len(plain) != 9 || len(traced) != 0 {
		t.Fatalf("untraced: %d plain, %d traced rounds, err %v", len(plain), len(traced), err)
	}
	if got := steadyRate(plain); got != 1000 {
		t.Fatalf("rate over rounds = %v, want 1000", got)
	}
	for i, on := range recorderOn {
		if on {
			t.Fatalf("untraced round %d ran with the recorder on", i)
		}
	}
	recorderOn = nil
	plain, traced, err = timedRounds(rec, 0, true, 9, 0, round)
	if err != nil || len(plain) != 5 || len(traced) != 4 {
		t.Fatalf("traced: %d plain, %d traced rounds, err %v", len(plain), len(traced), err)
	}
	for i, on := range recorderOn {
		if on != (i%2 == 1) {
			t.Fatalf("traced run, round %d: recorder on = %v", i, on)
		}
	}
	if !rec.on.Load() {
		t.Fatal("traced run left the recorder off")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{5000, 0.99, 4950}, // 50 beyond
		{1000, 0.99, 990},  // exactly 10 beyond
		{999, 0.95, 950},   // p99 would leave 9
		{200, 0.95, 190},   // exactly 10 beyond p95
		{199, 0.90, 180},   // p95 would leave 9
		{100, 0.90, 90},
		{99, 0.50, 50}, // p90 would leave 9
		{5, 0.50, 3},
	}
	for _, c := range cases {
		p, v := tail(ramp(c.n), 0.99)
		if p != c.wantP || v != c.wantV {
			t.Errorf("tail(n=%d) = p%g %v, want p%g %v", c.n, 100*p, v, 100*c.wantP, c.wantV)
		}
	}
	if p, _ := tail(ramp(5000), 0.95); p != 0.95 {
		t.Errorf("tail capped at 0.95 returned p%g", 100*p)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "round", StartNs: 0, EndNs: 100},
		// Two senders overlap on [30,40): covered once, not twice.
		{ID: 2, Parent: 1, Name: "client.ingest", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "client.ingest", StartNs: 30, EndNs: 60},
		// Sticks out past the parent's end: clipped to [90,100).
		{ID: 4, Parent: 1, Name: "stats.wait_applied", StartNs: 90, EndNs: 130},
		// A grandchild takes from its parent, not from the round.
		{ID: 5, Parent: 2, Name: "inner", StartNs: 10, EndNs: 25},
		// Inside an interval already covered: adds nothing.
		{ID: 6, Parent: 1, Name: "client.ingest", StartNs: 35, EndNs: 50},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30 - 15, 3: 30, 4: 40, 5: 15, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName, count := selfByName(spans)
	if byName["client.ingest"] != 15+30+15 || count["client.ingest"] != 3 {
		t.Errorf("client.ingest: self %d over %d spans", byName["client.ingest"], count["client.ingest"])
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	rec := newRecorder("w")
	now := time.Now()
	if id := rec.add(0, "x", now, now); id != 0 {
		t.Fatalf("recorder that is off returned span id %d", id)
	}
	rec.end(rec.begin(0, "y"))
	rec.on.Store(true)
	parent := rec.begin(0, "parent")
	rec.add(parent, "child", now, now.Add(time.Millisecond))
	rec.end(parent)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Workload != "w" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].EndNs-spans[1].StartNs != int64(time.Millisecond) {
		t.Fatalf("child span lasts %d ns", spans[1].EndNs-spans[1].StartNs)
	}
}

// The open loop times a request from when it was due. One worker and a
// first request that stalls: the requests queued behind it were due
// while it ran, so their latency must include that wait. These are lower
// bounds — a slow machine only makes the latencies longer — so the test
// asserts nothing a loaded box can break.
func TestOpenLoopCountsTheWaitBehindAStall(t *testing.T) {
	const (
		n        = 6
		interval = 2 * time.Millisecond
		stall    = 30 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	var order []int
	start := time.Now().Add(5 * time.Millisecond)
	res := runPaced(start, due, 1, nil, func(_, i int) (int, error) {
		order = append(order, i)
		if i == 0 {
			time.Sleep(stall)
		}
		if i == n-1 {
			return 2, errors.New("refused")
		}
		return 0, nil
	}, newRecorder("t"), 0, "op")
	if len(order) != n || len(res.samples) != n {
		t.Fatalf("ran %d requests, %d samples, want %d", len(order), len(res.samples), n)
	}
	lat, late := res.latencies()
	if res.failed != 1 || res.retries != 2 || res.firstErr == nil || len(lat) != n-1 || res.samples[n-1].ok {
		t.Fatalf("failed=%d retries=%d err=%v ok=%d", res.failed, res.retries, res.firstErr, len(lat))
	}
	for i, s := range res.samples[:n-1] {
		// Request i was due at i*interval and could not finish before the stall ended.
		floor := float64(stall-time.Duration(i)*interval) / float64(time.Millisecond)
		if s.due != due[i] || s.latMs < floor {
			t.Errorf("request %d: latency %.3f ms is below %.3f ms: not timed from its due time", i, s.latMs, floor)
		}
	}
	if late[0] < 0 {
		t.Errorf("a request was issued %.3f ms before it was due", -late[0])
	}
}

// A stream that runs beside another phase ends when it is told to, not
// when its schedule does.
func TestOpenLoopStops(t *testing.T) {
	due := make([]time.Duration, 100000)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	stop := make(chan struct{})
	var ran atomic.Int32
	res := runPaced(time.Now(), due, 2, stop, func(_, i int) (int, error) {
		if ran.Add(1) == 10 {
			close(stop)
		}
		return 0, nil
	}, newRecorder("t"), 0, "op")
	if got := len(res.samples); got < 10 || got > 12 {
		t.Fatalf("%d requests issued around a stop after 10", got)
	}
}

// One bad window out of five must not move the phase's latency, though
// it moves the plain median of all samples up the long tail.
func TestWindowMedianOutvotesABurst(t *testing.T) {
	var res pacedResult
	add := func(lat float64, ok bool) { // 10 requests a window
		res.samples = append(res.samples, pacedSample{
			due: time.Duration(len(res.samples)) * 100 * time.Millisecond, latMs: lat, ok: ok})
	}
	for w := 0; w < 5; w++ {
		for i := 0; i < 10; i++ {
			lat := 1 + float64(i)*float64(i)/10 // 1 … 9.1, long right tail
			if w == 2 {
				lat += 50 // the burst
			}
			add(lat, true)
		}
	}
	add(100, false) // a failed request and
	add(2, true)    // a short trailing window: it joins the last full one
	quiet := median([]float64{1, 1.1, 1.4, 1.9, 2.6, 3.5, 4.6, 5.9, 7.4, 9.1})
	if got := res.windowMedians(time.Second); len(got) != 5 {
		t.Fatalf("windows = %v, want 5", got)
	}
	if got := median(res.windowMedians(time.Second)); got != quiet {
		t.Fatalf("windowMedian = %v, want %v", got, quiet)
	}
	lat, _ := res.latencies()
	if plain := median(lat); plain <= quiet {
		t.Fatalf("plain median %v should sit above the quiet median %v", plain, quiet)
	}
}

func TestPoissonScheduleIsSeededAndKeepsItsRate(t *testing.T) {
	a := poissonSchedule(xrand.New(5).Split("s"), 5000, 500)
	b := poissonSchedule(xrand.New(5).Split("s"), 5000, 500)
	c := poissonSchedule(xrand.New(6).Split("s"), 5000, 500)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
	// 5000 arrivals at 500/s take 10 s give or take a few percent.
	if end := a[len(a)-1].Seconds(); end < 9 || end > 11 {
		t.Fatalf("5000 arrivals at 500/s ended at %.2f s", end)
	}
}

// TestSmoke runs every workload, untraced and traced, at sizes that take
// well under a second each, and requires every metric of the mode to be
// measured and every correctness check to pass.
func TestSmoke(t *testing.T) {
	var runs atomic.Int32
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			p := plan{workload: wl, seed: 7, seconds: 0.3, trace: trace}
			rep, rec, err := runWorkload(p, smokeSizes, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v (checks: %v)", wl, trace, err, rep.checks)
			}
			runs.Add(1)
			if len(rep.checks) > 0 {
				t.Errorf("%s trace=%v: failed checks: %v", wl, trace, rep.checks)
			}
			if rep.failed.Load() != 0 || rep.attempted.Load() < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", wl, trace, rep.attempted.Load(), rep.failed.Load())
			}
			for _, d := range endToEnd {
				if v, ok := rep.values[d.name]; !ok || v <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v (measured: %v)", wl, trace, d.name, v, ok)
				}
			}
			tab := endToEnd
			if trace {
				tab = perLayer
				if len(rec.snapshot()) == 0 {
					t.Errorf("%s: traced run recorded no spans", wl)
				}
			} else if len(rec.snapshot()) != 0 {
				t.Errorf("%s: untraced run recorded %d spans", wl, len(rec.snapshot()))
			}
			var out bytes.Buffer
			if err := rep.print(&out, tab); err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			res, err := lastJSONLine(out.Bytes())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if len(res.Metrics) != len(tab) || !res.Correct {
				t.Errorf("%s trace=%v: JSON line has %d metrics (want %d), correct=%v", wl, trace, len(res.Metrics), len(tab), res.Correct)
			}
			if trace {
				checkBypass(t, wl, rep)
			}
		}
	}
}

// checkBypass: a workload reports a layer it does not use as 0, and a
// layer it does use as more than 0.
func checkBypass(t *testing.T, wl string, rep *report) {
	t.Helper()
	serving := "ingest_plain ingest_wal_read fleet_routed"
	users := []struct{ prefix, workloads string }{ // first match wins
		{"core.fit", "fit_batch"},
		{"core.key_assign", "fit_batch"},
		{"core.tuple_count", "fit_batch"},
		{"mpi.", "fit_batch"},
		{"core.stream_", "ingest_wal_read"},
		{"core.merge_fold", "fleet_routed"},
		{"core.", serving},
		{"server.wal.", "ingest_wal_read"},
		{"server.checkpoints", "ingest_wal_read"},
		{"saturation.", "ingest_wal_read"},
		{"shardcluster.", "fleet_routed"},
		{"paced.label", "ingest_wal_read fleet_routed"},
		{"server.wire.", serving},
		{"server.http.", serving},
		{"server.apply_drain", serving},
		{"client.ingest", serving},
		{"client.label", serving},
		{"paced.", serving},
		{"obs.scrape", serving},
	}
	for _, d := range perLayer {
		for _, u := range users {
			if !strings.HasPrefix(d.name, u.prefix) {
				continue
			}
			v, uses := rep.values[d.name], strings.Contains(u.workloads, wl)
			// Counts of periodic work may be 0 in a run this short.
			periodic := d.name == "server.checkpoints" || d.name == "server.wal.fsyncs"
			if uses && v == 0 && !periodic {
				t.Errorf("%s uses %s but reports %s = 0", wl, u.prefix, d.name)
			}
			if !uses && v != 0 {
				t.Errorf("%s bypasses %s but reports %s = %v", wl, u.prefix, d.name, v)
			}
			break
		}
	}
}

// BENCHMARK.json, at the root of the repo, must list exactly the metrics
// and workloads this program has.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	for _, e := range bf.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}
