package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/failover"
)

// Config sizes a scenario. The zero value of every field but Bin means
// the default; a scenario reads only the fields its shape needs.
type Config struct {
	Bin string // directory holding keybin2d, keybin2router and keybin2failover (default ".")
	Dir string // workdir for state, WALs and fleet.log (default: a fresh temp dir, removed afterwards)

	Cycles   int    // kill cycles: crash, promote, failover (default 1)
	Replicas int    // followers per replica set (default 2)
	Dims     int    // point dimensionality (default 8)
	Batch    int    // points per batch (default 256)
	PerCycle int    // batches acked per cycle before the kill (default 6)
	Points   int    // load volume of restart, supervisor and shards (default 20000)
	Seed     int64  // data seed (default 1)
	Fsync    string // WAL flush policy of every daemon (default "always")
}

// Report is a scenario's account of what it did; a field a scenario has
// nothing to say about stays zero.
type Report struct {
	Scenario      string  `json:"scenario"`
	Cycles        int     `json:"cycles"`
	Fsync         string  `json:"fsync"`
	BatchesAcked  int64   `json:"batches_acked"`
	PointsAcked   int64   `json:"points_acked"`
	DupesReacked  int64   `json:"duplicates_reacked"`
	Elections     int64   `json:"elections"`
	WorstResumeMs float64 `json:"worst_resume_ms"`
	ProbeLabels   int     `json:"probe_labels"`
	ProbeModelGen int64   `json:"probe_model_gen"`
}

// book folds a ledger's totals and the last probe answer into the report.
func (r *Report) book(l *ledger, probe client.LabelResult) {
	r.BatchesAcked += l.batches
	r.PointsAcked += l.points
	r.DupesReacked += l.dupes
	r.ProbeLabels, r.ProbeModelGen = len(probe.Labels), probe.ModelGen
}

// Scenario is one fault story over a fleet it builds itself. It returns at
// the first broken invariant; Run owns the teardown either way.
type Scenario func(ctx context.Context, f *Fleet, cfg Config) (Report, error)

// Scenarios is the table: the single list of what is proven at process
// level. DESIGN.md "Chaos scenarios" states each row's fleet shape, fault
// and invariants.
var Scenarios = map[string]Scenario{
	"crash":      crash,
	"promote":    promote,
	"failover":   failoverElection,
	"restart":    restart,
	"supervisor": supervisor,
	"shards":     shards,
}

// Names lists the table's scenarios in a fixed order.
func Names() []string {
	names := make([]string, 0, len(Scenarios))
	for n := range Scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run looks a scenario up and runs it to completion.
func Run(ctx context.Context, name string, cfg Config) (Report, error) {
	sc, ok := Scenarios[name]
	if !ok {
		return Report{}, fmt.Errorf("chaos: no scenario %q (have %s)", name, strings.Join(Names(), ", "))
	}
	rep, err := run(ctx, sc, cfg)
	rep.Scenario = name
	return rep, err
}

// run is a scenario's whole life, and the one place its configuration is
// defaulted and its fleet torn down: on success every process still up
// must drain on SIGINT and exit 0; on every path out nothing survives. A
// failure carries the tail of the fleet log.
func run(ctx context.Context, sc Scenario, cfg Config) (Report, error) {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&cfg.Cycles, 1)
	def(&cfg.Replicas, 2)
	def(&cfg.Dims, 8)
	def(&cfg.Batch, 256)
	def(&cfg.PerCycle, 6)
	def(&cfg.Points, 20000)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Fsync == "" {
		cfg.Fsync = "always"
	}
	if cfg.Bin == "" {
		cfg.Bin = "."
	}
	if cfg.Dir == "" {
		d, err := os.MkdirTemp("", "kb2chaos-*")
		if err != nil {
			return Report{}, err
		}
		defer os.RemoveAll(d)
		cfg.Dir = d
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return Report{}, err
	}
	f, err := NewFleet(cfg.Bin, cfg.Dir)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	rep, err := sc(ctx, f, cfg)
	if err == nil {
		err = f.Drain()
	}
	if err != nil {
		err = fmt.Errorf("%w\n--- fleet log, last lines ---\n%s", err, f.LogTail(30))
	}
	rep.Cycles, rep.Fsync = cfg.Cycles, cfg.Fsync
	return rep, err
}

// daemonArgs is the keybin2d command line every durable node shares: a
// fixed range (no warmup), frequent refits and checkpoints, state in dir.
func daemonArgs(cfg Config, dir string) []string {
	return []string{
		"-dims", strconv.Itoa(cfg.Dims),
		"-range", "-12,12",
		"-trials", "2",
		"-period", "1000",
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-checkpoint", filepath.Join(dir, "state.kb2s"),
		"-checkpoint-every", "300ms",
		"-wal-dir", filepath.Join(dir, "wal"),
		"-fsync", cfg.Fsync,
	}
}

// crash proves the daemon's durability contract the honest way: it kill
// -9s a REAL keybin2d mid-ingest, cycle after cycle, and audits after
// every restart that no acknowledged batch was lost:
//
//  1. the recovered producer high-water mark covers every batch the
//     harness got a 202 for (an acked batch survived the kill), and
//  2. the daemon's applied point count reaches the sum of acked batch
//     points (the survivors were actually replayed into the stream).
//
// One batch per cycle is deliberately left in flight when the kill
// lands and settled after the restart under the SAME producer sequence
// (see ledger.settle). After the cycles,
//
//  3. a restart WITHOUT traffic changes no probe label: recovery is
//     deterministic.
func crash(ctx context.Context, f *Fleet, cfg Config) (Report, error) {
	var rep Report
	l := newLedger(cfg)
	d, err := f.Start(ctx, "keybin2d", append(daemonArgs(cfg, cfg.Dir),
		"-queue-depth", "8",
		"-wal-segment-bytes", "65536")...) // small segments: rotation + truncation every few cycles
	if err != nil {
		return rep, err
	}
	c := node(d)
	for cycle := 1; ; cycle++ {
		what := fmt.Sprintf("crash cycle %d", cycle)
		if err := l.audit(ctx, c, what); err != nil {
			return rep, err
		}
		if err := l.settle(ctx, c); err != nil {
			return rep, fmt.Errorf("%s: %w", what, err)
		}
		if cycle > cfg.Cycles {
			break
		}
		for i := 0; i < cfg.PerCycle; i++ {
			if _, err := l.send(ctx, c); err != nil {
				return rep, fmt.Errorf("%s: %w", what, err)
			}
		}
		l.next++
		l.pending = l.next
		inflight := l.batch(l.pending)
		raced := make(chan struct{})
		if cycle%2 == 0 {
			// Lost-ack cycle: the daemon acks the batch, the harness drops
			// the ack on the floor (as a crashed producer would). The
			// re-send after the restart must come back as a duplicate —
			// proving the acked batch survived the kill in the WAL.
			_, err := c.IngestSeq(ctx, inflight, l.pending)
			l.pendAcked = err == nil
			close(raced)
		} else {
			// Race cycle: leave the batch in flight and pull the trigger
			// while it races the WAL append; the kill decides its fate and
			// settle finds out.
			go func() {
				defer close(raced)
				c.IngestSeq(ctx, inflight, l.pending)
			}()
		}
		d.Kill()
		<-raced
		fmt.Fprintf(os.Stderr, "chaos: crash cycle %d/%d killed daemon at acked pseq %d (%d points)\n",
			cycle, cfg.Cycles, l.acked, l.points)
		if err := f.Revive(ctx, d); err != nil {
			return rep, fmt.Errorf("%s: %w", what, err)
		}
	}
	if err := l.converge(ctx, c); err != nil {
		return rep, err
	}
	before, err := l.agree(ctx, nil, sameLabels, c)
	if err != nil {
		return rep, err
	}
	d.Kill()
	if err := f.Revive(ctx, d); err != nil {
		return rep, err
	}
	if _, err := l.agree(ctx, &before, sameLabels, c); err != nil {
		return rep, fmt.Errorf("a traffic-free restart changed the answer — recovery is not deterministic: %w", err)
	}
	rep.book(l, before)
	return rep, nil
}

// replicaSet is one primary and its followers, as processes and as the
// harness's clients for them (same order, primary first).
type replicaSet struct {
	procs []*Proc
	nodes []*client.Client
}

func (rs *replicaSet) primary() *Proc { return rs.procs[0] }

func (rs *replicaSet) urls() []string {
	urls := make([]string, len(rs.procs))
	for i, p := range rs.procs {
		urls[i] = p.URL
	}
	return urls
}

// byURL finds the member a supervisor names.
func (rs *replicaSet) byURL(url string) (*Proc, *client.Client) {
	for i, p := range rs.procs {
		if p.URL == url {
			return p, rs.nodes[i]
		}
	}
	return nil, nil
}

// startReplicas builds a fresh 1-primary/N-follower set with state under
// dir: node 0 is the primary, nodes 1..N tail its WAL.
func startReplicas(ctx context.Context, f *Fleet, cfg Config, dir string) (*replicaSet, error) {
	rs := &replicaSet{}
	for i := 0; i <= cfg.Replicas; i++ {
		id := fmt.Sprintf("node%d", i)
		args := append(daemonArgs(cfg, filepath.Join(dir, id)), "-node-id", id, "-follow-poll", "250ms")
		if i > 0 {
			args = append(args, "-follow", rs.primary().URL)
		}
		p, err := f.Start(ctx, "keybin2d", args...)
		if err != nil {
			return nil, err
		}
		rs.procs = append(rs.procs, p)
		rs.nodes = append(rs.nodes, node(p))
	}
	return rs, nil
}

// loadAndKill is the prefix the replica scenarios share: PerCycle acked
// batches sent through writer, every node converged on them and answering the
// probe identically from the same model generation — the byte-identical
// serving claim, across processes — a follower refusing a write with the
// typed redirect, and then the chaos event: kill -9 of the primary, no
// drain. It returns the answer the set gave before the kill.
func (rs *replicaSet) loadAndKill(ctx context.Context, l *ledger, writer *client.Client) (client.LabelResult, error) {
	for i := 0; i < l.cfg.PerCycle; i++ {
		if _, err := l.send(ctx, writer); err != nil {
			return client.LabelResult{}, fmt.Errorf("pre-kill ingest: %w", err)
		}
	}
	// Followers must be caught up before the kill: a promotion or election
	// starts from the replayed horizon, and nothing acked may be beyond it.
	if err := l.converge(ctx, rs.nodes...); err != nil {
		return client.LabelResult{}, err
	}
	want, err := l.agree(ctx, nil, sameModel, rs.nodes...)
	if err != nil {
		return want, fmt.Errorf("replicas diverged before the kill: %w", err)
	}
	if err := l.expectRedirect(ctx, rs.procs[1], rs.primary()); err != nil {
		return want, err
	}
	rs.primary().Kill()
	fmt.Fprintf(os.Stderr, "chaos: killed primary %s at acked pseq %d (%d points)\n", rs.primary().URL, l.acked, l.points)
	return want, nil
}

// cycles runs one replica-set cycle after another, each with fresh state
// under its own directory and a graceful drain of its survivors.
func cycles(f *Fleet, cfg Config, cycle func(dir string) error) error {
	for i := 1; i <= cfg.Cycles; i++ {
		err := cycle(filepath.Join(cfg.Dir, fmt.Sprintf("cycle%d", i)))
		if err == nil {
			err = f.Drain()
		}
		if err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}
	}
	return nil
}

// promote is the operator's recovery path: every cycle builds a replica
// set, loads it, kill -9s the primary (loadAndKill) and then asserts
//
//  1. the surviving followers still answer the probe with the SAME labels
//     (reads survive the primary's death),
//  2. follower 0, promoted by hand (POST /promote), passes the audit a
//     restarted node passes: its producer high-water mark covers every
//     acked batch and its applied points reach the acked volume — no acked
//     batch may die with the primary,
//  3. the promoted node accepts new acked writes from its replayed
//     horizon, proving the WAL it opened at promotion is live.
func promote(ctx context.Context, f *Fleet, cfg Config) (Report, error) {
	var rep Report
	err := cycles(f, cfg, func(dir string) error {
		l := newLedger(cfg)
		rs, err := startReplicas(ctx, f, cfg, dir)
		if err != nil {
			return err
		}
		want, err := rs.loadAndKill(ctx, l, rs.nodes[0])
		if err != nil {
			return err
		}
		if _, err := l.agree(ctx, &want, sameModel, rs.nodes[1:]...); err != nil {
			return fmt.Errorf("a follower changed answers after the primary died: %w", err)
		}
		heir := rs.nodes[1]
		if _, err := heir.Promote(ctx); err != nil {
			return fmt.Errorf("promote: %w", err)
		}
		st, err := heir.Stats(ctx)
		if err != nil {
			return err
		}
		if st.Role != "primary" || !st.Promoted {
			return fmt.Errorf("promoted node reports role=%q promoted=%v", st.Role, st.Promoted)
		}
		if err := l.audit(ctx, heir, "promotion"); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if _, err := l.send(ctx, heir); err != nil {
				return fmt.Errorf("post-promotion ingest: %w", err)
			}
		}
		if err := l.converge(ctx, heir); err != nil {
			return fmt.Errorf("post-promotion points never applied: %w", err)
		}
		final, err := l.agree(ctx, nil, sameLabels, heir)
		rep.book(l, final)
		return err
	})
	return rep, err
}

// supervised is startReplicas under a keybin2failover: it returns once the
// supervisor has found the primary and minted epoch 1 over it.
func supervised(ctx context.Context, f *Fleet, l *ledger, dir string, supArgs ...string) (*replicaSet, *Proc, error) {
	rs, err := startReplicas(ctx, f, l.cfg, dir)
	if err != nil {
		return nil, nil, err
	}
	sup, err := supervise(ctx, f, rs, supArgs...)
	if err != nil {
		return nil, nil, err
	}
	_, err = l.awaitStatus(ctx, sup, "adoption of the starting primary under epoch 1", func(st failover.Status) bool {
		return st.Primary == rs.primary().URL && st.ClusterEpoch == 1
	})
	return rs, sup, err
}

func supervise(ctx context.Context, f *Fleet, rs *replicaSet, supArgs ...string) (*Proc, error) {
	return f.Start(ctx, "keybin2failover", append([]string{"-nodes", strings.Join(rs.urls(), ",")}, supArgs...)...)
}

// awaitStatus polls a supervisor's fleet view until cond holds (the
// supervisor probes on its own cadence; the harness only watches) and
// returns the view that satisfied it.
func (l *ledger) awaitStatus(ctx context.Context, sup *Proc, what string, cond func(failover.Status) bool) (failover.Status, error) {
	var st failover.Status
	return st, l.await(ctx, what, func() (bool, string) {
		st = failover.Status{}
		if err := call(ctx, "GET", sup.URL+"/status", &st); err != nil {
			return false, err.Error()
		}
		return cond(st), fmt.Sprintf("status %+v", st)
	})
}

// zombieDemoted is the supervisor's view of a revived ex-primary that has
// been fenced and demoted in place: a follower at the cluster's epoch.
func zombieDemoted(zombie *Proc, epoch int64) func(failover.Status) bool {
	return func(st failover.Status) bool {
		for _, n := range st.Nodes {
			if n.URL == zombie.URL {
				return n.Role == "follower" && n.Epoch == epoch
			}
		}
		return false
	}
}

// resumeWindow bounds how long writes may stall across a primary kill
// before the harness declares the election dead.
const resumeWindow = 45 * time.Second

// failoverElection is promote with no operator: the replica set runs under
// a keybin2failover supervisor, the harness kill -9s the primary
// (loadAndKill, written through ONE pool-mode client that then rides out
// the kill untouched) and calls /promote never. The invariants:
//
//  1. writes resume via election alone — the first post-kill ack lands
//     within a bounded window and carries the post-election epoch,
//  2. no acked batch is lost: the elected primary passes the audit,
//  3. the revived zombie is fenced: restarted on its ORIGINAL address
//     (epoch 0, still thinks it is a primary), a client carrying the
//     post-election epoch token gets the typed stale-epoch rejection
//     even with no supervisor running,
//  4. a FRESH supervisor re-learns the cluster epoch from the fleet — no
//     re-mint, no primary flap, no election — and demotes the zombie in
//     place into a follower that refuses writes with the redirect and
//     converges on the new primary's history.
func failoverElection(ctx context.Context, f *Fleet, cfg Config) (Report, error) {
	if cfg.Replicas < 2 {
		cfg.Replicas = 2 // an election needs somebody to win it
	}
	var rep Report
	// RecoverAfter 1 readmits the revived zombie on its first answered
	// probe, so the rejoin half of the cycle is quick.
	supArgs := []string{"-probe-every", "150ms", "-probe-timeout", "1s", "-fail-after", "3", "-recover-after", "1"}
	err := cycles(f, cfg, func(dir string) error {
		l := newLedger(cfg)
		rs, sup, err := supervised(ctx, f, l, dir, supArgs...)
		if err != nil {
			return err
		}
		old := rs.primary()
		// The write path: endpoints = the whole replica set.
		pool := node(old)
		pool.SetEndpoints(rs.urls()...)
		if _, err := rs.loadAndKill(ctx, l, pool); err != nil {
			return err
		}
		killedAt := time.Now()

		rctx, cancel := context.WithTimeout(ctx, resumeWindow)
		ack, err := l.send(rctx, pool)
		cancel()
		if err != nil {
			return fmt.Errorf("writes did not resume via election alone within %s: %w", resumeWindow, err)
		}
		resume := float64(time.Since(killedAt).Milliseconds())
		rep.WorstResumeMs = max(rep.WorstResumeMs, resume)
		epoch := ack.Epoch
		if epoch < 2 {
			return fmt.Errorf("first post-kill ack carries epoch %d, want the post-election epoch ≥ 2", epoch)
		}
		fmt.Fprintf(os.Stderr, "chaos: writes resumed %.0f ms after the kill at epoch %d\n", resume, epoch)
		for i := 0; i < 3; i++ { // keep the post-election WAL moving
			if _, err := l.send(ctx, pool); err != nil {
				return fmt.Errorf("post-election ingest: %w", err)
			}
		}

		// The supervisor's view must agree with the data path: a follower
		// won, and nothing acked died with the old primary.
		var st failover.Status
		if err := call(ctx, "GET", sup.URL+"/status", &st); err != nil {
			return err
		}
		heirProc, heir := rs.byURL(st.Primary)
		if heirProc == nil || heirProc == old {
			return fmt.Errorf("supervisor names %q as primary after the kill", st.Primary)
		}
		if st.Elections < 1 {
			return fmt.Errorf("writes resumed but the supervisor reports %d elections", st.Elections)
		}
		rep.Elections += st.Elections
		if err := l.audit(ctx, heir, "election"); err != nil {
			return err
		}

		// Stop the supervisor BEFORE reviving the zombie: the first fencing
		// assertion must hold with no control plane around to help — client
		// epoch tokens alone keep the zombie out of the write path.
		if err := sup.Stop(); err != nil {
			return err
		}
		if err := f.Revive(ctx, old); err != nil {
			return fmt.Errorf("zombie revival: %w", err)
		}
		zombie := node(old)
		zombie.SetKnownEpoch(epoch)
		_, err = zombie.IngestSeq(ctx, l.batch(l.next+100), l.next+100)
		var stale *client.ErrStaleEpoch
		if !errors.As(err, &stale) {
			return fmt.Errorf("tokened write to the revived zombie: got %v, want ErrStaleEpoch", err)
		}
		if stale.RequestEpoch != epoch || stale.NodeEpoch >= epoch {
			return fmt.Errorf("stale-epoch detail %+v, want request %d against an older node epoch", stale, epoch)
		}

		sup2, err := supervise(ctx, f, rs, supArgs...)
		if err != nil {
			return err
		}
		if _, err := l.awaitStatus(ctx, sup2, "epoch re-learn by the fresh supervisor", func(st failover.Status) bool {
			return st.Primary == heirProc.URL && st.ClusterEpoch == epoch
		}); err != nil {
			return err
		}
		st, err = l.awaitStatus(ctx, sup2, "zombie demotion", zombieDemoted(old, epoch))
		if err != nil {
			return err
		}
		if st.Elections != 0 {
			return fmt.Errorf("fresh supervisor ran %d elections over a healthy fleet", st.Elections)
		}
		zst, err := zombie.Stats(ctx)
		if err != nil {
			return err
		}
		if zst.Role != "follower" || zst.Epoch != epoch || zst.Primary != heirProc.URL {
			return fmt.Errorf("zombie rejoined as role=%q epoch=%d primary=%q, want follower/%d/%q",
				zst.Role, zst.Epoch, zst.Primary, epoch, heirProc.URL)
		}
		if err := l.expectRedirect(ctx, old, heirProc); err != nil {
			return fmt.Errorf("demoted zombie: %w", err)
		}

		// One more acked batch through the pool, then the whole replica set —
		// zombie included — must converge and answer the probe identically.
		if _, err := l.send(ctx, pool); err != nil {
			return fmt.Errorf("post-rejoin ingest: %w", err)
		}
		if err := l.converge(ctx, rs.nodes...); err != nil {
			return fmt.Errorf("after the rejoin: %w", err)
		}
		final, err := l.agree(ctx, nil, sameModel, rs.nodes...)
		if err != nil {
			return fmt.Errorf("replicas diverged after the failover round-trip: %w", err)
		}
		rep.book(l, final)
		return nil
	})
	return rep, err
}
