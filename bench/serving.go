package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/xrand"
)

// maxBackpressureRetries bounds how often one batch is re-sent after a
// 429 before it counts as failed. At a 5 ms hint this is five seconds
// of a full queue, which only a wedged daemon produces.
const maxBackpressureRetries = 1000

// sender is one closed-loop producer: its own client (so its own
// connection), its own producer id, and its own walk through the pool.
type sender struct {
	c      *client.Client
	next   int // pool index of the next batch; carries on from round to round
	stride int // distance between this sender's pool indexes
}

func (s *sender) nextBatch(pool []rawBatch) rawBatch {
	b := pool[s.next%len(pool)]
	s.next += s.stride
	return b
}

// sendCounts is what pushing batches through the client cost.
type sendCounts struct {
	requests int64 // HTTP requests, retries included
	rejected int64 // 429s, each slept out and retried
	failed   int64 // batches that errored or ran out of retries
}

// sendBatch delivers one batch: on a 429 it sleeps exactly the daemon's
// hint and re-sends under the same producer sequence. The jittered
// client retry helper is deliberately not used — jitter is noise the
// bench would be adding to its own measurement.
func sendBatch(c *client.Client, b rawBatch, n *sendCounts) error {
	pseq := c.NextBatchSeq()
	for try := 0; ; try++ {
		n.requests++
		_, err := c.IngestRawSeq(context.Background(), b.raw, b.rows, pseq)
		var bp *client.ErrBackpressure
		if errors.As(err, &bp) && try < maxBackpressureRetries {
			n.rejected++
			time.Sleep(bp.RetryAfter)
			continue
		}
		if err != nil {
			n.failed++
		}
		return err
	}
}

// serving runs the three workloads that go through keybin2d.
type serving struct {
	plan plan
	sz   sizes
	rep  *report
	rec  *recorder

	in       streamInputs
	dir      string
	fl       *fleet
	senders  []*sender
	acked    atomic.Int64 // points the fleet has acknowledged since boot
	errOnce  sync.Once
	firstErr error
}

// noteErr keeps the first operation error for the report.
func (w *serving) noteErr(err error) {
	if err != nil {
		w.errOnce.Do(func() { w.firstErr = err })
	}
}

// producerOwnedBy returns a producer id with the given prefix that the
// router's hash ring assigns to the wanted shard, so that the bench, not
// the ephemeral port numbers the shard URLs happen to contain, decides
// how producers spread over shards.
func (w *serving) producerOwnedBy(prefix string, shard int) string {
	for k := 0; ; k++ {
		name := fmt.Sprintf("%s-%d", prefix, k)
		if w.fl.router == nil || w.fl.router.OwnerOf(name) == w.fl.nodes[shard].url {
			return name
		}
	}
}

func (w *serving) newProducer(prefix string, i int) *client.Client {
	c := client.New(w.fl.front)
	c.SetProducer(w.producerOwnedBy(fmt.Sprintf("%s%d", prefix, i), i%len(w.fl.nodes)))
	return c
}

// setUp generates and encodes the inputs, boots the fleet and runs the
// warm-up rounds: everything that happens before the first timed round.
func (w *serving) setUp() error {
	w.in = genStreamInputs(w.sz, w.plan.seed)
	dir, err := os.MkdirTemp(w.plan.scratch, w.plan.workload+"-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.fl, err = bootFleet(w.plan.workload, dir); err != nil {
		return err
	}
	w.acked.Store(0)
	nSenders := 2
	if w.plan.workload == "ingest_wal_read" {
		nSenders = 1 // the second load goroutine is the /label reader
	}
	w.senders = nil
	for i := 0; i < nSenders; i++ {
		w.senders = append(w.senders, &sender{c: w.newProducer("sat", i), next: i, stride: nSenders})
	}
	for i := 0; i < w.sz.warmRounds; i++ {
		if _, err := w.round(0); err != nil {
			return fmt.Errorf("warm-up round %d: %w", i, err)
		}
	}
	return nil
}

func (w *serving) tearDown() error {
	var err error
	if w.fl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = w.fl.stop(ctx)
		cancel()
		w.fl = nil
	}
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
		w.dir = ""
	}
	// Let go of the inputs, or the next set-up would build its own beside
	// them and peak_rss_mb would measure the bench, not the system.
	w.in, w.senders = streamInputs{}, nil
	return err
}

// roundStat is one saturation round.
type roundStat struct {
	points  int64
	seconds float64 // first send → fleet has applied (and, routed, merged) the round
	drainMs float64 // last ack → applied
	merges  []mergeStat
	sendCounts
}

type mergeStat struct {
	ms         float64
	stateBytes int
}

// merge runs one merge epoch through the router. exact says the fleet is
// quiescent, so the merged state must hold exactly the applied points.
func (w *serving) merge(parent int, exact bool) (mergeStat, error) {
	t0 := time.Now()
	res, err := w.fl.router.MergeOnce(context.Background())
	t1 := time.Now()
	w.rec.add(parent, "router.merge", t0, t1)
	w.rep.attempted.Add(1)
	if err != nil {
		w.rep.failed.Add(1)
		return mergeStat{}, fmt.Errorf("merge: %w", err)
	}
	if seen := w.fl.seen(); exact && res.MergedSeen != seen {
		w.rep.failCheck("merged_seen", "merge epoch %d folded %d points, shards have applied %d", res.Epoch, res.MergedSeen, seen)
	}
	return mergeStat{ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6, stateBytes: res.StateBytes}, nil
}

// round sends a fixed number of batches closed-loop from every sender
// and ends when the fleet has applied them all — input to complete
// result — so batches still sitting in the ingest queue cannot flatter
// the rate. On the routed fleet a merge epoch runs mid-round, beside the
// senders, and another closes the round.
func (w *serving) round(parent int) (roundStat, error) {
	per := w.sz.roundBatches[w.plan.workload] / len(w.senders)
	id := w.rec.begin(parent, "round")
	defer w.rec.end(id)

	var st roundStat
	var mu sync.Mutex // guards st from the senders and the mid-round merge
	var wg sync.WaitGroup
	var roundPts atomic.Int64
	t0 := time.Now()
	for i, s := range w.senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			var n sendCounts
			for k := 0; k < per; k++ {
				if i == 0 && k == per/2 && w.fl.router != nil {
					wg.Add(1)
					go func() {
						defer wg.Done()
						m, err := w.merge(id, false)
						w.noteErr(err)
						mu.Lock()
						if err == nil {
							st.merges = append(st.merges, m)
						}
						mu.Unlock()
					}()
				}
				b := s.nextBatch(w.in.pool)
				c0 := time.Now()
				err := sendBatch(s.c, b, &n)
				w.rec.add(id, "client.ingest", c0, time.Now())
				if err != nil {
					w.noteErr(err)
					continue
				}
				roundPts.Add(int64(b.rows))
			}
			mu.Lock()
			st.requests += n.requests
			st.rejected += n.rejected
			st.failed += n.failed
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	tAck := time.Now()
	st.points = roundPts.Load()
	total := w.acked.Add(st.points)
	err := w.fl.waitApplied(total)
	tApplied := time.Now()
	w.rec.add(id, "stats.wait_applied", tAck, tApplied)
	if err != nil {
		w.rep.failCheck("seen_equals_sent", "%v", err)
		return st, err
	}
	if w.fl.router != nil {
		m, err := w.merge(id, true)
		if err != nil {
			return st, err
		}
		st.merges = append(st.merges, m)
	}
	st.seconds = time.Since(t0).Seconds()
	st.drainMs = float64(tApplied.Sub(tAck).Nanoseconds()) / 1e6
	return st, nil
}

// labelOp is an open-loop /label query through the front URL.
func (w *serving) labelOp(readers []*client.Client) pacedOp {
	return func(worker, i int) (int, error) {
		_, err := readers[worker].Label(context.Background(), w.in.queries[i%len(w.in.queries)])
		return 0, err
	}
}

func (w *serving) newReaders(n int) []*client.Client {
	readers := make([]*client.Client, n)
	for i := range readers {
		readers[i] = client.New(w.fl.front)
	}
	return readers
}

// count adds an open-loop stream's requests to the report.
func (w *serving) count(r pacedResult) pacedResult {
	w.rep.attempted.Add(int64(len(r.samples)))
	w.rep.failed.Add(r.failed)
	w.noteErr(r.firstErr)
	return r
}

// readBeside keeps one open-loop /label reader at labelRate going until
// stop is closed: the durable workload's reader beside its saturating
// sender. horizon only sizes the schedule; it must outlast the phase.
func (w *serving) readBeside(parent int, stop <-chan struct{}, horizon time.Duration) pacedResult {
	due := poissonSchedule(xrand.New(w.plan.seed).Split("saturation/label"),
		int(horizon.Seconds()*w.sz.labelRate), w.sz.labelRate)
	return w.count(runPaced(time.Now(), due, 1, stop, w.labelOp(w.newReaders(1)), w.rec, parent, "client.label"))
}

// pacedPhase is the open-loop phase of the traced run: ingest at ackRate
// batches/s and, unless the workload keeps its read path idle, /label at
// labelRate queries/s, each on a schedule of its own, for dur. On the
// routed fleet a merge epoch runs every mergeEvery beside them, and once
// in a while /metrics and /trace are fetched the way keybin2top would.
func (w *serving) pacedPhase(parent int, dur time.Duration) (ack, lab pacedResult, scrapeMs []float64) {
	id := w.rec.begin(parent, "phase.paced")
	defer w.rec.end(id)
	const ackWorkers, labelWorkers = 4, 2
	schedule := func(stream string, rate float64) []time.Duration {
		return poissonSchedule(xrand.New(w.plan.seed).Split("paced/"+stream), int(dur.Seconds()*rate), rate)
	}
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		producers := make([]*client.Client, ackWorkers)
		for i := range producers {
			producers[i] = w.newProducer("paced", i)
		}
		counts := make([]sendCounts, ackWorkers)
		ack = w.count(runPaced(start, schedule("ack", w.sz.ackRate), ackWorkers, nil,
			func(worker, i int) (int, error) {
				b := w.in.pool[i%len(w.in.pool)]
				before := counts[worker].rejected
				err := sendBatch(producers[worker], b, &counts[worker])
				if err == nil {
					w.acked.Add(int64(b.rows))
				}
				return int(counts[worker].rejected - before), err
			}, w.rec, id, "client.ingest"))
	}()
	if w.plan.workload != "ingest_plain" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lab = w.count(runPaced(start, schedule("label", w.sz.labelRate), labelWorkers, nil,
				w.labelOp(w.newReaders(labelWorkers)), w.rec, id, "client.label"))
		}()
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	every := func(d time.Duration, fn func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			t := time.NewTicker(d)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fn()
				case <-stop:
					return
				}
			}
		}()
	}
	if w.fl.router != nil {
		every(w.sz.mergeEvery, func() {
			_, err := w.merge(id, false)
			w.noteErr(err)
		})
	}
	scraper := client.New(w.fl.front)
	every(w.sz.mergeEvery, func() {
		t0 := time.Now()
		_, err := scraper.Metrics(context.Background())
		if err == nil {
			err = fetchDiscard(w.fl.front + "/trace")
		}
		t1 := time.Now()
		w.rec.add(id, "obs.scrape", t0, t1)
		w.noteErr(err)
		if err == nil {
			scrapeMs = append(scrapeMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
	})
	wg.Wait()
	close(stop)
	bg.Wait()
	if err := w.fl.waitApplied(w.acked.Load()); err != nil {
		w.rep.failCheck("seen_equals_sent", "paced phase: %v", err)
	}
	return ack, lab, scrapeMs
}

// probeF1 labels the held-out probe set through the workload's public
// read path — the front URL, so the router on the routed fleet — and
// scores the labels against the generator's truth.
func (w *serving) probeF1(parent int) (float64, error) {
	id := w.rec.begin(parent, "phase.probe")
	defer w.rec.end(id)
	if w.fl.router != nil {
		// Shards label with the model of the last merge epoch; fold in
		// what the paced phase ingested since.
		if _, err := w.merge(id, true); err != nil {
			return 0, err
		}
	}
	c := client.New(w.fl.front)
	labels := make([]int, 0, w.in.probe.Rows)
	cols := w.in.probe.Cols
	for lo := 0; lo < w.in.probe.Rows; lo += w.sz.batchPts {
		hi := lo + w.sz.batchPts
		if hi > w.in.probe.Rows {
			hi = w.in.probe.Rows
		}
		chunk := &linalg.Matrix{Rows: hi - lo, Cols: cols, Data: w.in.probe.Data[lo*cols : hi*cols]}
		w.rep.attempted.Add(1)
		res, err := c.Label(context.Background(), chunk)
		if err != nil {
			w.rep.failed.Add(1)
			return 0, fmt.Errorf("probe label: %w", err)
		}
		labels = append(labels, res.Labels...)
	}
	_, _, f1 := eval.PrecisionRecallF1(labels, w.in.truth)
	return f1, nil
}

// reopenCheck restarts the durable daemon on the WAL and checkpoint it
// left behind and requires every acknowledged point to be there.
func (w *serving) reopenCheck() {
	cfg := w.fl.nodes[0].cfg
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.fl.stop(ctx)
	w.fl = nil
	if err != nil {
		w.rep.failCheck("reopen_recovers", "stop: %v", err)
		return
	}
	srv, err := server.New(cfg)
	if err != nil {
		w.rep.failCheck("reopen_recovers", "reopen: %v", err)
		return
	}
	if seen, want := srv.Stats().Seen, w.acked.Load(); seen != want {
		w.rep.failCheck("reopen_recovers", "recovered %d points, %d were acknowledged", seen, want)
	}
	if err := srv.Stop(ctx); err != nil {
		w.rep.failCheck("reopen_recovers", "stop after reopen: %v", err)
	}
}

// run is one serving workload, start to finish.
func (w *serving) run() error {
	defer w.tearDown()
	root := w.rec.begin(0, "workload."+w.plan.workload)
	defer w.rec.end(root)

	setupS, err := repeatSetUp(w.plan, w.sz, w.setUp, w.tearDown)
	if err != nil {
		return err
	}
	w.rep.set("setup_s", setupS)
	w.rec.add(root, "phase.setup", processStart, time.Now())
	satBudget, pacedBudget := w.plan.budgets()

	// Saturation: closed loop, median over rounds. The durable workload
	// has its /label reader beside the sender throughout.
	runtime.GC()
	front := client.New(w.fl.nodes[0].url)
	before, err := front.Metrics(context.Background())
	if err != nil {
		return err
	}
	var beside pacedResult
	stopReader := make(chan struct{})
	var reader sync.WaitGroup
	if w.plan.workload == "ingest_wal_read" {
		reader.Add(1)
		go func() {
			defer reader.Done()
			beside = w.readBeside(root, stopReader, 3*satBudget+time.Minute)
		}()
	}
	var rounds []roundStat
	pts, tracedPts, err := timedRounds(w.rec, root, w.plan.trace, w.sz.minRounds, satBudget, func(parent int) (float64, error) {
		st, err := w.round(parent)
		w.rep.attempted.Add(int64(w.sz.roundBatches[w.plan.workload]))
		w.rep.failed.Add(st.failed)
		rounds = append(rounds, st)
		return float64(st.points) / st.seconds, err
	})
	close(stopReader)
	reader.Wait()
	if err != nil {
		return err
	}
	after, err := front.Metrics(context.Background())
	if err != nil {
		return err
	}
	w.rep.set("pts_per_s", steadyRate(pts))
	w.rep.notes["pts_per_s"] = rateNote(pts, float64(rounds[0].points))
	var requests, rejected int64
	var drainMs, mergeMs []float64
	stateBytes := 0
	for _, r := range rounds {
		requests += r.requests
		rejected += r.rejected
		drainMs = append(drainMs, r.drainMs)
		for _, m := range r.merges {
			mergeMs = append(mergeMs, m.ms)
			stateBytes = m.stateBytes
		}
	}
	w.rep.set("server.apply_drain_ms", median(drainMs))
	w.rep.set("server.queue.rejected_ratio", float64(rejected)/float64(requests))
	w.rep.set("server.wal.fsyncs", after["keybin2d_wal_fsyncs_total"]-before["keybin2d_wal_fsyncs_total"])
	w.rep.set("server.checkpoints", after["keybin2d_checkpoints_total"]-before["keybin2d_checkpoints_total"])
	if len(beside.samples) > 0 {
		setLatency(w.rep, "saturation.label_p50_ms", beside)
	}
	if w.fl.router != nil {
		w.rep.set("shardcluster.merge_ms", median(mergeMs))
		w.rep.set("shardcluster.merge_state_bytes", float64(stateBytes))
		w.rep.set("shardcluster.merges", float64(len(mergeMs)))
		var max, sum float64
		for _, n := range w.fl.nodes {
			s := float64(n.srv.Stats().Seen)
			sum += s
			if s > max {
				max = s
			}
		}
		w.rep.set("shardcluster.shard_skew", max/(sum/float64(len(w.fl.nodes))))
	}

	if w.plan.trace {
		reportTraceCost(w.rep, pts, tracedPts)
		runtime.GC()
		ack, lab, scrapeMs := w.pacedPhase(root, pacedBudget)
		reportPaced(w.rep, ack, lab)
		w.rep.set("obs.scrape_ms", median(scrapeMs))
	}

	runtime.GC()
	f1, err := w.probeF1(root)
	if err != nil {
		return err
	}
	w.rep.set("f1", f1)
	if f1 < 0.90 {
		w.rep.failCheck("f1_floor", "f1 %.4f is below 0.90", f1)
	}

	if w.plan.trace {
		runtime.GC()
		if err := w.ladder(root); err != nil {
			return fmt.Errorf("layer ladder: %w", err)
		}
	}
	if w.plan.workload == "ingest_wal_read" {
		w.reopenCheck()
	}
	if w.firstErr != nil {
		// Counted operations show up in failed; anything else that erred
		// (a scrape, a merge beside the senders) still means the run is
		// not clean.
		w.rep.failCheck("no_errors", "%v", w.firstErr)
	}
	return nil
}

// setLatency reports an open-loop stream's typical latency under name.
func setLatency(rep *report, name string, r pacedResult) {
	lat, _ := r.latencies()
	windows := r.windowMedians(time.Second)
	rep.set(name, median(windows))
	rep.notes[name] = fmt.Sprintf("median of one-second windows' medians %.3g; n=%d, plain median %.4g",
		windows, len(lat), percentile(lat, 0.50))
}

// setTail reports the highest supported percentile up to p99 of sorted
// under name, and says which percentile it was.
func setTail(rep *report, name string, sorted []float64, what string) {
	p, v := tail(sorted, 0.99)
	rep.set(name, v)
	rep.notes[name] = fmt.Sprintf("p%g of n=%d%s", 100*p, len(sorted), what)
}

// reportPaced turns the open-loop phase's samples into its metrics. lab
// is empty on the workload that keeps its read path idle.
func reportPaced(rep *report, ack, lab pacedResult) {
	ackLat, late := ack.latencies()
	setLatency(rep, "paced.ack_p50_ms", ack)
	setTail(rep, "paced.ack_p99_ms", ackLat, "")
	if len(lab.samples) > 0 {
		labLat, labLate := lab.latencies()
		setLatency(rep, "paced.label_p50_ms", lab)
		setTail(rep, "paced.label_p99_ms", labLat, "")
		late = append(late, labLate...)
		sort.Float64s(late)
	}
	setTail(rep, "paced.sched_late_p99_ms", late, fmt.Sprintf(", median %.3f ms: how late requests were issued", percentile(late, 0.5)))
	rep.set("client.retries", float64(ack.retries+lab.retries))
}
