package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"keybin2/internal/client"
	"keybin2/internal/failover"
	"keybin2/internal/shardcluster"
)

// The three scenarios below were CI shell scripts (server-e2e, the
// standalone-supervisor half of failover-e2e, shard-e2e). They drive the
// fleet with the load generator instead of single ledger batches, so the
// ledger is credited with a whole run at a time.

// load pushes n points through the daemon or router at url with the load
// generator (label queries hammering alongside) and credits the ledger:
// RunLoad returns only once every batch is acked.
func (l *ledger) load(ctx context.Context, url string, n int, lc client.LoadConfig) error {
	lc.Points, lc.Dims, lc.BatchSize = n, l.cfg.Dims, l.cfg.Batch
	// The load's connections are closed when it ends, as a load generator
	// process exiting would: a connection the transport dialed and never
	// used holds a draining server's Shutdown for five seconds.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}
	defer hc.CloseIdleConnections()
	if _, err := client.RunLoad(ctx, client.NewWithHTTPClient(url, hc), lc); err != nil {
		return fmt.Errorf("load of %d points at %s: %w", n, url, err)
	}
	l.points += int64(n)
	return nil
}

// scrape fetches a node's /metrics and fails unless it has every series of
// present and exactly the value want gives for each of its.
func scrape(ctx context.Context, c *client.Client, who string, want map[string]float64, present ...string) (map[string]float64, error) {
	m, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", who, err)
	}
	for _, n := range present {
		if _, ok := m[n]; !ok {
			return m, fmt.Errorf("%s /metrics has no %s series", who, n)
		}
	}
	for n, v := range want {
		if got, ok := m[n]; !ok || got != v {
			return m, fmt.Errorf("%s /metrics: %s = %v (present %v), want %v", who, n, got, ok, v)
		}
	}
	return m, nil
}

const acceptedPoints = "keybin2d_ingest_accepted_points_total"

// restart is the graceful half of the daemon's life: a primary with a WAL,
// a checkpoint and a trace log, and a follower tailing it, take a real
// concurrent load whose label queries are split across both. Asserted:
//
//  1. mid-load, the primary's accepted-points counter is live and
//     monotone between scrapes, and its WAL, group-commit, coalesced-fsync,
//     apply-pool and queue-capacity series and /trace are exposed,
//  2. mid-load, the follower exposes its replica gauges (applied horizon,
//     staleness bound),
//  3. the load succeeds and both nodes served its reads,
//  4. the follower converges on the full volume, labels the probe as the
//     primary does and refuses a write with the 421 redirect,
//  5. the primary's final accepted count covers the volume (and the
//     mid-load scrape stayed under it), its trace log is non-empty, and
//     it drains cleanly on SIGINT,
//  6. restarted from checkpoint + WAL it has every point again and labels
//     the probe exactly as before the restart,
//  7. follower and restarted primary drain cleanly on SIGINT (Run's Drain).
func restart(ctx context.Context, f *Fleet, cfg Config) (Report, error) {
	var rep Report
	l := newLedger(cfg)
	traceLog := filepath.Join(cfg.Dir, "traces.jsonl")
	shape := []string{"-dims", strconv.Itoa(cfg.Dims), "-range", "-12,12", "-period", "5000"}
	primary, err := f.Start(ctx, "keybin2d", append(shape, "-queue-depth", "256",
		"-checkpoint", filepath.Join(cfg.Dir, "state.kb2s"), "-wal-dir", filepath.Join(cfg.Dir, "wal"),
		"-fsync", cfg.Fsync, "-trace-log", traceLog)...)
	if err != nil {
		return rep, err
	}
	follower, err := f.Start(ctx, "keybin2d", append(shape, "-follow", primary.URL, "-follow-poll", "250ms")...)
	if err != nil {
		return rep, err
	}
	pc, fc := node(primary), node(follower)

	// The load runs beside the scrapes; it is joined before anything
	// returns, so no request outlives the scenario.
	done := make(chan error, 1)
	go func() {
		done <- l.load(ctx, primary.URL, cfg.Points, client.LoadConfig{Seed: cfg.Seed, ReadAddrs: []string{follower.URL}})
	}()
	var midLoad float64
	scrapes := func() error {
		var first float64
		if err := l.await(ctx, "accepted points on the primary's /metrics", func() (bool, string) {
			m, err := pc.Metrics(ctx)
			first = m[acceptedPoints]
			return err == nil && first > 0, fmt.Sprintf("accepted %v, err %v", first, err)
		}); err != nil {
			return err
		}
		m, err := scrape(ctx, pc, "primary", map[string]float64{"keybin2d_ingest_queue_capacity": 256},
			"keybin2d_wal_last_seq", "keybin2d_wal_group_commit_batches_count",
			"keybin2d_wal_fsyncs_coalesced_total")
		if err != nil {
			return err
		}
		if midLoad = m[acceptedPoints]; midLoad < first {
			return fmt.Errorf("accepted counter went backwards: %v -> %v", first, midLoad)
		}
		var ring struct{ Traces []json.RawMessage }
		if err := call(ctx, "GET", primary.URL+"/trace", &ring); err != nil {
			return err
		}
		_, err = scrape(ctx, fc, "follower", nil, "keybin2d_replica_applied_seq", "keybin2d_replica_lag_seconds")
		return err
	}
	scrapeErr := scrapes()
	loadErr := <-done
	if scrapeErr != nil {
		return rep, fmt.Errorf("mid-load: %w", scrapeErr)
	}
	if loadErr != nil {
		return rep, loadErr
	}
	// Nothing but the load has labelled yet: each node's own count says
	// whether it served the load's reads.
	for who, c := range map[string]*client.Client{"primary": pc, "follower": fc} {
		if st, err := c.Stats(ctx); err != nil || st.Labeled == 0 {
			return rep, fmt.Errorf("the %s served none of the load's reads (labeled %d, err %v)", who, st.Labeled, err)
		}
	}

	if err := l.converge(ctx, fc); err != nil {
		return rep, fmt.Errorf("follower: %w", err)
	}
	want, err := l.agree(ctx, nil, sameLabels, pc, fc)
	if err != nil {
		return rep, fmt.Errorf("follower diverged from its primary: %w", err)
	}
	if err := l.expectRedirect(ctx, follower, primary); err != nil {
		return rep, err
	}
	m, err := pc.Metrics(ctx)
	if err != nil {
		return rep, err
	}
	if final := m[acceptedPoints]; final < float64(cfg.Points) || midLoad > float64(cfg.Points) {
		return rep, fmt.Errorf("accepted %v at the end, %v mid-load, for a load of %d", final, midLoad, cfg.Points)
	}
	if fi, err := os.Stat(traceLog); err != nil || fi.Size() == 0 {
		return rep, fmt.Errorf("trace log %s is missing or empty (%v)", traceLog, err)
	}
	if err := primary.Stop(); err != nil {
		return rep, err
	}

	if err := f.Revive(ctx, primary); err != nil {
		return rep, err
	}
	if err := l.audit(ctx, pc, "restart from checkpoint + WAL"); err != nil {
		return rep, err
	}
	if _, err := l.agree(ctx, &want, sameLabels, pc); err != nil {
		return rep, fmt.Errorf("the restart changed the answer: %w", err)
	}
	rep.book(l, want)
	return rep, nil
}

// supervisor is failover seen from outside: a standalone keybin2failover
// watched over HTTP, bulk loads instead of single batches, and the SAME
// supervisor staying up across the zombie's return. Asserted:
//
//  1. adoption: the supervisor finds the primary and mints epoch 1,
//  2. after kill -9 of the primary (followers fully caught up, so the
//     revived zombie is never AHEAD of the winner — the diverged case is
//     fenced but deliberately not demoted) exactly one election puts a
//     follower in charge under epoch 2, no human involved,
//  3. writes flow through the elected primary,
//  4. the zombie, revived on its ORIGINAL address at epoch 0, is fenced and
//     demoted into a follower at epoch 2 and refuses a write with the 421
//     redirect to the elected primary,
//  5. the supervisor never flapped: its /metrics say 1 election, epoch 2,
//     every node up,
//  6. supervisor and all daemons drain cleanly on SIGINT.
func supervisor(ctx context.Context, f *Fleet, cfg Config) (Report, error) {
	var rep Report
	l := newLedger(cfg)
	rs, sup, err := supervised(ctx, f, l, cfg.Dir, "-probe-every", "100ms", "-fail-after", "2")
	if err != nil {
		return rep, err
	}
	old := rs.primary()
	if err := l.load(ctx, old.URL, cfg.Points, client.LoadConfig{Seed: cfg.Seed}); err != nil {
		return rep, err
	}
	if err := l.converge(ctx, rs.nodes[1:]...); err != nil {
		return rep, fmt.Errorf("followers before the kill: %w", err)
	}
	old.Kill()
	st, err := l.awaitStatus(ctx, sup, "one election under epoch 2", func(st failover.Status) bool {
		return st.Elections == 1 && st.ClusterEpoch == 2 && st.Primary != "" && st.Primary != old.URL
	})
	if err != nil {
		return rep, err
	}
	rep.Elections = st.Elections
	heirProc, heir := rs.byURL(st.Primary)
	if heirProc == nil {
		return rep, fmt.Errorf("supervisor elected %q, which is no member of the set", st.Primary)
	}
	if err := l.load(ctx, heirProc.URL, cfg.Points/4, client.LoadConfig{Seed: cfg.Seed + 1}); err != nil {
		return rep, fmt.Errorf("writes through the elected primary: %w", err)
	}
	if err := l.converge(ctx, heir); err != nil {
		return rep, fmt.Errorf("elected primary: %w", err)
	}
	if err := f.Revive(ctx, old); err != nil {
		return rep, fmt.Errorf("zombie revival: %w", err)
	}
	if _, err := l.awaitStatus(ctx, sup, "zombie demotion", zombieDemoted(old, 2)); err != nil {
		return rep, err
	}
	if err := l.expectRedirect(ctx, old, heirProc); err != nil {
		return rep, fmt.Errorf("demoted zombie: %w", err)
	}
	if _, err := scrape(ctx, node(sup), "supervisor", map[string]float64{
		"keybin2failover_elections_total": 1,
		"keybin2failover_cluster_epoch":   2,
		"keybin2failover_nodes_up":        float64(len(rs.procs)),
	}); err != nil {
		return rep, err
	}
	final, err := l.agree(ctx, nil, sameLabels, heir)
	rep.book(l, final)
	return rep, err
}

// shards is the sharded cluster's life: a keybin2router fronting three
// keybin2d shards (congruent -range, a huge -period: the model comes from
// merge installs, never a local refit) under producer-partitioned load.
// Asserted:
//
//  1. every shard takes traffic, the router accounts for every point, and
//     the ring's ownership skew is sane (0 < cv < 0.6),
//  2. merge epoch 1: all three shards contribute and install, and the
//     merged model has seen every point,
//  3. after kill -9 of one shard, ingest fails over to the survivors (fresh
//     producer identities — per-producer dedupe would drop a replayed one):
//     two shards up, one down row, and every proxied point of both runs
//     landed on a live shard,
//  4. merge epoch 2 completes with the survivors — degraded, not stuck,
//  5. the router and each live shard, queried directly, label the probe
//     identically: they serve the same installed model bytes,
//  6. the router's merge and shard-health series say exactly that, and
//     /ring answers,
//  7. the killed shard, restarted with FRESH state on its old address, is
//     re-admitted by the health loop, and — holding zero points — already
//     labels from the caught-up global model, identically to the others,
//  8. merge epoch 3 includes it again and changes no label (no ingest
//     since epoch 2), and the router counted one recovery,
//  9. router and shards drain cleanly on SIGINT.
func shards(ctx context.Context, f *Fleet, cfg Config) (Report, error) {
	var rep Report
	l := newLedger(cfg)
	dims := strconv.Itoa(cfg.Dims)
	var procs []*Proc
	var urls []string
	for i := 0; i < 3; i++ {
		p, err := f.Start(ctx, "keybin2d", "-dims", dims, "-range", "-12,12", "-period", "1000000000",
			"-node-id", fmt.Sprintf("node%d", i), "-shard", fmt.Sprintf("shard%d", i))
		if err != nil {
			return rep, err
		}
		procs, urls = append(procs, p), append(urls, p.URL)
	}
	router, err := f.Start(ctx, "keybin2router", "-dims", dims, "-range", "-12,12",
		"-shards", strings.Join(urls, ","), "-merge-every", "0", "-health-every", "100ms")
	if err != nil {
		return rep, err
	}
	rc := node(router)
	if err := l.await(ctx, "router readiness", func() (bool, string) {
		err := rc.Ready(ctx)
		return err == nil, fmt.Sprint(err)
	}); err != nil {
		return rep, err
	}
	// routed loads through the router — one producer per worker, and many
	// workers: the ring hashes shard URLs, which differ run to run, so a
	// handful of producers could leave a shard idle by chance — and returns
	// the router's account afterwards: points routed since it started, and
	// how many shards took none of them or are down.
	var cs shardcluster.ClusterStats
	routed := func(n int, prefix string, seed int64) (points int64, idle, down int, err error) {
		if err = l.load(ctx, router.URL, n, client.LoadConfig{Seed: seed, Ingesters: 32, ProducerPrefix: prefix}); err != nil {
			return
		}
		err = call(ctx, "GET", router.URL+"/stats", &cs)
		for _, row := range cs.ShardDetail {
			points += row.Points
			if row.Points == 0 {
				idle++
			}
			if !row.Up {
				down++
			}
		}
		return
	}
	// merge runs one merge epoch and checks who took part.
	merge := func(epoch int64, members int) (mr shardcluster.MergeResult, err error) {
		if err = call(ctx, "POST", router.URL+"/merge", &mr); err != nil {
			return mr, err
		}
		if mr.Epoch != epoch || mr.Shards != members || mr.Installed != members {
			return mr, fmt.Errorf("merge %+v, want epoch %d with %d shards merged and installed", mr, epoch, members)
		}
		return mr, nil
	}

	points, idle, down, err := routed(cfg.Points, "load", cfg.Seed)
	if err != nil {
		return rep, err
	}
	if cs.Shards != 3 || cs.ShardsUp != 3 || down+idle > 0 || points != l.points || cs.Balance <= 0 || cs.Balance >= 0.6 {
		return rep, fmt.Errorf("after the first load the router reports %+v, want 3/3 shards up, all busy, %d points, 0 < cv < 0.6", cs, l.points)
	}
	mr, err := merge(1, 3)
	if err != nil {
		return rep, err
	}
	if mr.MergedSeen != l.points {
		return rep, fmt.Errorf("merge epoch 1 saw %d points, the load acked %d", mr.MergedSeen, l.points)
	}

	procs[1].Kill()
	if points, _, down, err = routed(cfg.Points/3, "load2", cfg.Seed+1); err != nil {
		return rep, fmt.Errorf("load over a dead shard: %w", err)
	}
	if cs.ShardsUp != 2 || down != 1 || points != l.points {
		return rep, fmt.Errorf("after the kill the router reports %+v, want 2 up, 1 down, %d points routed", cs, l.points)
	}
	if _, err := merge(2, 2); err != nil {
		return rep, err
	}
	want, err := l.agree(ctx, nil, sameLabels, rc, node(procs[0]), node(procs[2]))
	if err != nil {
		return rep, fmt.Errorf("router and live shards disagree: %w", err)
	}
	if _, err := scrape(ctx, rc, "router", map[string]float64{
		"keybin2router_merge_epochs_total": 2,
		"keybin2router_merge_epoch":        2,
		"keybin2router_shards_up":          2,
		"keybin2router_shard_down_total":   1,
	}, "keybin2router_merge_state_bytes"); err != nil {
		return rep, err
	}
	if err := call(ctx, "GET", router.URL+"/ring", nil); err != nil {
		return rep, err
	}

	if err := f.Revive(ctx, procs[1]); err != nil {
		return rep, fmt.Errorf("shard rejoin: %w", err)
	}
	if err := l.await(ctx, "re-admission of the restarted shard", func() (bool, string) {
		err := call(ctx, "GET", router.URL+"/stats", &cs)
		return err == nil && cs.ShardsUp == 3, fmt.Sprintf("%d shards up, err %v", cs.ShardsUp, err)
	}); err != nil {
		return rep, err
	}
	if _, err := l.agree(ctx, &want, sameLabels, node(procs[1])); err != nil {
		return rep, fmt.Errorf("reborn shard is not caught up: %w", err)
	}
	if _, err := merge(3, 3); err != nil {
		return rep, err
	}
	if _, err := l.agree(ctx, &want, sameLabels, rc); err != nil {
		return rep, fmt.Errorf("merge epoch 3 changed the answer: %w", err)
	}
	if _, err := scrape(ctx, rc, "router", map[string]float64{"keybin2router_shard_recovered_total": 1}); err != nil {
		return rep, err
	}
	rep.book(l, want)
	return rep, nil
}
