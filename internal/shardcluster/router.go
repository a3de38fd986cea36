package shardcluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/daemon"
	"keybin2/internal/failover"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

const (
	// vnodes is the virtual points per shard on the hash ring.
	vnodes = 64
	// maxBodyBytes bounds proxied request bodies and pulled /hist states.
	maxBodyBytes = 64 << 20
)

// Config tunes a shard Router.
type Config struct {
	// Shards are the keybin2d base URLs forming the cluster (required,
	// ≥ 1). The URL doubles as the shard's ring name.
	Shards []string
	// Stream must equal the StreamConfig every shard runs — the router
	// derives the global model with it. RawRanges is required (shards need
	// congruent histograms) and DecayFactor must be off.
	Stream core.StreamConfig
	// MergeEvery is the merge-epoch cadence (0 = manual only via
	// POST /merge — tests and CI drive epochs explicitly).
	MergeEvery time.Duration
	// HealthEvery is the health-probe cadence (default 500ms).
	HealthEvery time.Duration
	// FailThreshold is how many consecutive health-probe failures mark a
	// shard down (default 2). Transport errors on proxied traffic mark it
	// down immediately — a refused connection is not a maybe.
	FailThreshold int
	// RecoverThreshold is how many consecutive successful probes readmit
	// a down shard (default 2) — the flap hysteresis: a shard oscillating
	// at the probe cadence stays down instead of thrashing the ring.
	RecoverThreshold int
	// ShardTimeout bounds every proxied or collective request to one
	// shard (default 10s).
	ShardTimeout time.Duration
	// Tracer records distributed traces — proxied ingest/label hops and
	// merge epochs — and backs GET /trace (default: fresh, capacity 256).
	Tracer *obs.Tracer
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
	// Logf receives operational log lines.
	Logf func(format string, args ...any)
	// RunID identifies this router incarnation (default: minted).
	RunID string
}

func (c Config) withDefaults() Config {
	if c.HealthEvery <= 0 {
		c.HealthEvery = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	c.RunID, c.Tracer = daemon.Identity(c.RunID, c.Tracer, 256)
	return c
}

// shard is one cluster member's runtime state.
type shard struct {
	name string // ring name == base URL
	url  string

	// up mirrors the detector's verdict for the lock-free hot paths
	// (ring lookups, upShards); det holds the actual state — a
	// consecutive-miss failure detector with recovery hysteresis, fed by
	// health probes (Observe) and by traffic-path transport errors
	// (ForceDown), guarded by detMu because both report concurrently.
	up    atomic.Bool
	detMu sync.Mutex
	det   *failover.Detector
	// epoch is the newest merge epoch successfully installed on this
	// shard; a rejoining shard below the cluster epoch gets a catch-up
	// install from the health loop.
	epoch atomic.Int64

	// Distribution accounting for /stats and the loadgen balance report.
	batches atomic.Int64
	points  atomic.Int64
	labels  atomic.Int64
}

// installedBlob is the last merged model shipped to shards — what a
// rejoining shard catches up with.
type installedBlob struct {
	blob  []byte
	epoch int64
	seen  int64
}

// Router runs N keybin2d shards as one logical service: consistent-hash
// ingest partitioning by producer, round-robin label fan-out, cluster
// /stats//metrics aggregation, and the merge collective that keeps every
// shard serving the identical global model. Start launches the health and
// merge loops; Stop halts them. Handler is the HTTP surface.
type Router struct {
	cfg    Config
	ring   *Ring
	shards map[string]*shard
	order  []string // cfg.Shards order, for stable display
	global *core.GlobalModelState
	hc     *http.Client
	tel    *routerTelemetry
	tracer *obs.Tracer
	prober *failover.Prober // only touched on the health loop goroutine

	// mergeMu serializes merge epochs (ticker + manual POST /merge +
	// catch-up installs all contend); epoch and lastInstall publish the
	// outcome to readers.
	mergeMu     sync.Mutex
	epoch       atomic.Int64
	lastInstall atomic.Pointer[installedBlob]

	rr     atomic.Uint64   // round-robin cursor for untagged ingest + labels
	ctx    context.Context // cancelled by Stop
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a Router. Every shard starts presumed up; the first health
// round corrects that within HealthEvery.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shardcluster: router needs at least one shard")
	}
	global, err := core.NewGlobalModelState(cfg.Stream)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(cfg.Shards))
	shards := make(map[string]*shard, len(cfg.Shards))
	for _, raw := range cfg.Shards {
		u, err := daemon.BaseURL(raw)
		if err != nil {
			return nil, fmt.Errorf("shardcluster: shard: %w", err)
		}
		if _, dup := shards[u]; dup {
			return nil, fmt.Errorf("shardcluster: duplicate shard %q", u)
		}
		sh := &shard{name: u, url: u,
			det: failover.NewDetector(cfg.FailThreshold, cfg.RecoverThreshold)}
		sh.up.Store(true)
		shards[u] = sh
		names = append(names, u)
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:    cfg,
		ring:   ring,
		shards: shards,
		order:  names,
		global: global,
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConnsPerHost: 32,
			WriteBufferSize:     128 << 10,
			ReadBufferSize:      64 << 10,
		}},
		tracer: cfg.Tracer,
		prober: failover.NewProber(cfg.HealthEvery),
		ctx:    ctx,
		cancel: cancel,
	}
	r.tel = newRouterTelemetry(cfg.RunID, r)
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Start launches the health loop and, with MergeEvery set, the merge
// ticker. Call once; Stop reverses it.
func (r *Router) Start() {
	r.wg.Add(1)
	go r.healthLoop()
	if r.cfg.MergeEvery > 0 {
		r.wg.Add(1)
		go r.mergeLoop()
	}
}

// Stop halts the loops and cuts off in-flight health probes. In-flight
// proxied requests are not interrupted.
func (r *Router) Stop() {
	r.cancel()
	r.wg.Wait()
}

func (r *Router) isUp(name string) bool {
	sh := r.shards[name]
	return sh != nil && sh.up.Load()
}

// upShards returns the live members in stable order.
func (r *Router) upShards() []*shard {
	var up []*shard
	for _, n := range r.order {
		if sh := r.shards[n]; sh.up.Load() {
			up = append(up, sh)
		}
	}
	return up
}

// markDown records direct failure evidence — a transport error on
// proxied traffic, a failed pull or install. That outranks any number of
// pending probes (Detector.ForceDown), and the hash ring rebalances
// implicitly: Lookup's up-predicate now skips the shard, so its
// producers flow to ring successors on the very next request.
func (r *Router) markDown(sh *shard, why string) {
	sh.detMu.Lock()
	changed := sh.det.ForceDown()
	if changed {
		// The up mirror is updated under detMu so it can never diverge
		// from the detector's verdict: a recovery transition in
		// observeProbe racing this store would otherwise leave up=true
		// over a detector that says down — and with changed=false here
		// ever after, nothing would put it right until a real recovery.
		sh.up.Store(false)
	}
	sh.detMu.Unlock()
	if changed {
		r.tel.shardDown.Inc()
		r.logf("shard %s marked down (%s); ring rebalanced across %d survivors",
			sh.url, why, len(r.upShards()))
	}
}

// observeProbe feeds one health-probe outcome into the shard's failure
// detector: FailThreshold consecutive misses demote, RecoverThreshold
// consecutive hits readmit — nothing flips on a single observation.
func (r *Router) observeProbe(sh *shard, ok bool, why string) {
	sh.detMu.Lock()
	up, changed := sh.det.Observe(ok)
	if changed {
		sh.up.Store(up) // mirror updated under detMu; see markDown
	}
	sh.detMu.Unlock()
	if !changed {
		return
	}
	if up {
		r.markUp(sh)
		return
	}
	r.tel.shardDown.Inc()
	r.logf("shard %s marked down (%s); ring rebalanced across %d survivors",
		sh.url, why, len(r.upShards()))
}

// markUp handles the side effects of a recovery (the up mirror itself
// was already flipped under detMu in observeProbe). The shard's old
// hash range reverts to it automatically (the up-predicate admits it
// again); if the cluster has moved past the shard's last installed
// merge epoch, ship the current global model immediately rather than
// leaving it stale until the next epoch.
func (r *Router) markUp(sh *shard) {
	r.tel.shardUp.Inc()
	r.logf("shard %s recovered; ring range restored", sh.url)
	if li := r.lastInstall.Load(); li != nil && sh.epoch.Load() < li.epoch {
		if err := r.installOn(sh, li, obs.SpanContext{}); err != nil {
			r.logf("shard %s: catch-up install epoch %d: %v", sh.url, li.epoch, err)
		} else {
			r.logf("shard %s: caught up to merge epoch %d", sh.url, li.epoch)
		}
	}
}

func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			r.prober.Round(r.ctx, len(r.order), func(ctx context.Context, i int) {
				r.probeShard(ctx, r.shards[r.order[i]])
			})
		}
	}
}

// probeShard GETs one shard's /healthz and feeds the outcome to its
// detector as the probe lands. A probe that Stop cuts off is not a miss.
func (r *Router) probeShard(ctx context.Context, sh *shard) {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, sh.url+"/healthz", nil)
	if err != nil {
		r.observeProbe(sh, false, err.Error())
		return
	}
	resp, err := r.hc.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.observeProbe(sh, true, "")
		return
	}
	if ctx.Err() != nil {
		return
	}
	why := "health probe failed"
	if err != nil {
		why = err.Error()
	}
	r.observeProbe(sh, false, why)
}

func (r *Router) mergeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.MergeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			if _, err := r.MergeOnce(context.Background()); err != nil {
				r.logf("merge epoch failed: %v", err)
			}
		}
	}
}

// MergeResult reports one completed merge epoch.
type MergeResult struct {
	Epoch      int64  `json:"epoch"`
	Clusters   int    `json:"clusters"`
	MergedSeen int64  `json:"merged_seen"`
	Shards     int    `json:"shards_merged"`
	Installed  int    `json:"shards_installed"`
	StateBytes int    `json:"state_bytes"`
	RunID      string `json:"run_id"`
}

// MergeOnce runs one merge epoch: pull /hist from every live shard, fold
// the states (core.MergeShardStates — order-independent), derive the
// global model with stabilized labels (the router is the cluster's single
// label-continuity authority), and install the encoded model on every
// live shard. Degrades gracefully: shards that fail the pull are marked
// down and the epoch proceeds with the survivors' states; shards that
// fail the install keep their previous model and catch up when the health
// loop readmits them. An error means NO epoch happened (nothing merged or
// installed).
func (r *Router) MergeOnce(ctx context.Context) (MergeResult, error) {
	r.mergeMu.Lock()
	defer r.mergeMu.Unlock()
	start := time.Now()

	up := r.upShards()
	if len(up) == 0 {
		return MergeResult{}, fmt.Errorf("shardcluster: no shards up")
	}
	// One trace per merge epoch: the per-shard pulls and installs carry the
	// router's traceparent, so the shard-side hist_export/hist_install
	// traces join this trace ID and the whole collective reconstructs from
	// the fleet's ring buffers.
	tr := r.tracer.Start("merge_epoch", obs.KV("shards_up", len(up)))
	defer tr.Finish()
	// Pull phase — concurrent, failures demote.
	pulled := make([]*server.Body, len(up))
	errs := make([]error, len(up))
	var wg sync.WaitGroup
	for i, sh := range up {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sp := tr.Span("hist_pull", obs.KV("shard", sh.url))
			pulled[i], errs[i] = r.pullHist(ctx, sh, tr.Context())
			sp.End(obs.KV("ok", errs[i] == nil))
		}(i, sh)
	}
	wg.Wait()

	var states [][]byte
	for i, body := range pulled {
		if errs[i] != nil {
			r.logf("merge: shard %s skipped: %v", up[i].url, errs[i])
			continue
		}
		defer body.Release() // after the epoch; the fold copies what it keeps
		states = append(states, body.Bytes())
	}
	if len(states) == 0 {
		r.tel.mergeFailures.Inc()
		tr.AddAttrs(obs.KV("error", "no shard states"))
		return MergeResult{}, fmt.Errorf("shardcluster: merge epoch aborted: no shard states (cluster of %d)", len(up))
	}

	foldStart := time.Now()
	merged, err := core.MergeShardStates(states...)
	if err != nil {
		r.tel.mergeFailures.Inc()
		tr.AddAttrs(obs.KV("error", err.Error()))
		return MergeResult{}, fmt.Errorf("shardcluster: merge: %w", err)
	}
	model, err := r.global.Install(merged)
	if err != nil {
		r.tel.mergeFailures.Inc()
		tr.AddAttrs(obs.KV("error", err.Error()))
		return MergeResult{}, fmt.Errorf("shardcluster: global refit: %w", err)
	}
	tr.AddSpan("fold", foldStart, time.Since(foldStart),
		obs.KV("states", len(states)), obs.KV("clusters", model.K()))

	epoch := r.epoch.Load() + 1
	li := &installedBlob{blob: model.Encode(), epoch: epoch, seen: int64(r.global.Seen())}

	// Install phase — every live shard gets the identical bytes. A shard
	// that fails here is marked down; it will catch up on recovery.
	installed := 0
	for _, sh := range r.upShards() {
		sp := tr.Span("install", obs.KV("shard", sh.url), obs.KV("epoch", epoch))
		err := r.installOn(sh, li, tr.Context())
		sp.End(obs.KV("ok", err == nil))
		if err != nil {
			r.logf("merge: install on %s failed: %v", sh.url, err)
			continue
		}
		installed++
	}
	tr.AddAttrs(obs.KV("epoch", epoch), obs.KV("installed", installed))
	r.epoch.Store(epoch)
	r.lastInstall.Store(li)
	r.tel.mergeEpochs.Inc()
	r.tel.mergeSeconds.Observe(time.Since(start).Seconds())
	r.tel.mergeStateBytes.SetInt(int64(len(merged)))
	r.tel.mergedSeen.SetInt(li.seen)
	r.logf("merge epoch %d: %d/%d shards contributed %d points, %d clusters, installed on %d shards (%.1fms)",
		epoch, len(states), len(up), li.seen, model.K(), installed,
		float64(time.Since(start).Microseconds())/1000)
	return MergeResult{
		Epoch: epoch, Clusters: model.K(), MergedSeen: li.seen,
		Shards: len(states), Installed: installed, StateBytes: len(merged), RunID: r.cfg.RunID,
	}, nil
}

// pullHist GETs one shard's /hist state, bounded by maxBodyBytes. A
// transport failure marks the shard down. A refusal (409 before warm-up
// or while draining) or a state over the limit, which is refused whole
// and never cut short, leaves it up: it is alive, with nothing to give
// this epoch.
func (r *Router) pullHist(ctx context.Context, sh *shard, sc obs.SpanContext) (*server.Body, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.url+"/hist", nil)
	if err != nil {
		return nil, err
	}
	sc.Inject(req.Header)
	resp, err := r.hc.Do(req)
	if err != nil {
		r.markDown(sh, "hist pull: "+err.Error())
		return nil, err
	}
	defer resp.Body.Close()
	body, err := server.ReadBody(resp.Body, resp.ContentLength, maxBodyBytes)
	if err != nil {
		if !errors.Is(err, server.ErrBodyTooLarge) {
			r.markDown(sh, "hist read: "+err.Error())
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer body.Release()
		return nil, fmt.Errorf("hist: %d %s", resp.StatusCode, strings.TrimSpace(string(body.Bytes())))
	}
	return body, nil
}

// installOn ships the merged model to one shard. Transport failure marks
// it down; a 409 (the shard already holds a newer epoch) is success — the
// model there is newer than or equal to ours, never stale. A valid sc
// (the merge epoch's trace context) rides along so the shard-side
// hist_install trace joins the collective's trace ID; catch-up installs
// from the health loop pass the zero context and stay unlinked.
func (r *Router) installOn(sh *shard, li *installedBlob, sc obs.SpanContext) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/hist/install?epoch=%d&seen=%d", sh.url, li.epoch, li.seen)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(li.blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if sc.Valid() {
		sc.Inject(req.Header)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		r.markDown(sh, "install: "+err.Error())
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("install: %d %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// Monotone update: a catch-up install racing a live merge epoch must
	// not roll the recorded epoch back.
	for {
		cur := sh.epoch.Load()
		if li.epoch <= cur || sh.epoch.CompareAndSwap(cur, li.epoch) {
			break
		}
	}
	return nil
}

// Epoch returns the newest completed merge epoch.
func (r *Router) Epoch() int64 { return r.epoch.Load() }
