package shardcluster

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"keybin2/internal/client"
	"keybin2/internal/daemon"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

// Handler returns the router's HTTP API: the daemon chassis routes
// (daemon.Mux) plus the table below; what each route answers is
// documented once, in cmd/keybin2router's package doc.
//
// Ingest routing: the X-Producer header (the same idempotency identity
// the daemon dedupes on) hashes onto the ring, so one producer's batches
// always land on one shard — which is what keeps the daemon's per-producer
// sequence dedupe exact under retries. Untagged batches round-robin.
func (r *Router) Handler() http.Handler {
	mux := daemon.Mux(r.tel.reg, r.tracer, r.cfg.EnablePprof)
	mux.HandleFunc("/ingest", daemon.POST(r.handleIngest))
	mux.HandleFunc("/label", daemon.POST(r.handleLabel))
	mux.HandleFunc("/stats", daemon.GET(r.handleStats))
	mux.HandleFunc("/ring", daemon.GET(r.handleRing))
	mux.HandleFunc("/merge", daemon.POST(r.handleMerge))
	mux.HandleFunc("/readyz", daemon.GET(r.handleReady))
	return mux
}

// outbound is a proxied request's body, read once into a pooled buffer
// and resent unchanged by every failover attempt. The transport may still
// be writing an attempt after Do returns (a shard can answer before it has
// read the body) and closes that attempt's body when done, so the buffer
// goes back to the pool only when the handler and every attempt's body
// have let go of it.
type outbound struct {
	body *server.Body
	refs atomic.Int32
}

// readOutbound reads the body, bounded by maxBodyBytes. A nil return means
// the error response was already written.
func readOutbound(w http.ResponseWriter, req *http.Request) *outbound {
	body := server.ReadRequest(w, req, maxBodyBytes)
	if body == nil {
		return nil
	}
	o := &outbound{body: body}
	o.refs.Store(1) // the handler's
	return o
}

func (o *outbound) unref() {
	if o.refs.Add(-1) == 0 {
		o.body.Release()
	}
}

// attempt is http.Request.GetBody: a fresh reader over the bytes.
func (o *outbound) attempt() (io.ReadCloser, error) {
	o.refs.Add(1)
	a := &attemptBody{out: o}
	a.rd.Reset(o.body.Bytes())
	return a, nil
}

// attemptBody is one attempt's reader. The transport may Close it while
// its writer still holds it; the lock puts every read before that Close.
type attemptBody struct {
	mu  sync.Mutex
	rd  bytes.Reader
	out *outbound // nil once closed
}

func (a *attemptBody) Read(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.out == nil {
		return 0, net.ErrClosed
	}
	return a.rd.Read(p)
}

func (a *attemptBody) Close() error {
	a.mu.Lock()
	out := a.out
	a.out = nil
	a.mu.Unlock()
	if out != nil {
		out.unref()
	}
	return nil
}

// proxy forwards the body to one shard and relays the response verbatim
// (status, headers of interest, body). Returns false on a transport
// error, after marking the shard down — the caller picks a survivor and
// retries with the same bytes. The router's trace context is injected
// into the downstream request, so the shard's server-side trace joins
// the same trace ID the caller stamped on the router.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, sh *shard, path string, out *outbound, tr *obs.Trace) bool {
	sp := tr.Span("proxy", obs.KV("shard", sh.url))
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.ShardTimeout)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+path, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return true // not a shard failure; don't fail over
	}
	// Without a ContentLength a body of this type would go out chunked.
	preq.Body, _ = out.attempt()
	preq.GetBody = out.attempt
	preq.ContentLength = int64(len(out.body.Bytes()))
	for _, h := range []string{"X-Producer", "X-Batch-Seq", "Content-Type"} {
		if v := req.Header.Get(h); v != "" {
			preq.Header.Set(h, v)
		}
	}
	tr.Context().Inject(preq.Header)
	resp, err := r.hc.Do(preq)
	if err != nil {
		if req.Context().Err() != nil {
			// The producer hung up; nothing to fail over for, and the shard
			// did nothing wrong.
			sp.End(obs.KV("outcome", "caller_gone"))
			return true
		}
		sp.End(obs.KV("outcome", "transport_error"))
		r.markDown(sh, path+" proxy: "+err.Error())
		r.tel.failovers.Inc()
		return false
	}
	sp.End(obs.KV("status", resp.StatusCode))
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "X-Retry-After-Ms", "X-KB2-Primary", "X-Model-Gen"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-KB2-Shard", sh.url)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	out := readOutbound(w, req)
	if out == nil {
		return
	}
	defer out.unref()
	producer := req.Header.Get("X-Producer")
	// Per-shard point accounting; 0 for a malformed batch, which the shard refuses.
	_, points, _, _ := server.ParseBatchHeader(out.body.Bytes(), 0)
	// Join the producer's trace when it sent one — the router hop becomes a
	// child of the client's root span, and the shard's ingest trace in turn
	// joins this one: one trace ID, reconstructable across all three.
	tr := daemon.StartTrace(r.tracer, req.Header, "router_ingest",
		obs.KV("producer", producer), obs.KV("points", points))
	defer tr.Finish()
	// Bounded failover: at most one attempt per cluster member. Each
	// transport failure marks its target down, so the next Lookup sees a
	// smaller up-set — the ring has already rebalanced.
	for attempt := 0; attempt < len(r.order); attempt++ {
		var sh *shard
		if producer != "" {
			if name := r.ring.Lookup(producer, r.isUp); name != "" {
				sh = r.shards[name]
			}
		} else if up := r.upShards(); len(up) > 0 {
			sh = up[int(r.rr.Add(1))%len(up)]
		}
		if sh == nil {
			break
		}
		if r.proxy(w, req, sh, "/ingest", out, tr) {
			sh.batches.Add(1)
			sh.points.Add(int64(points))
			r.tel.proxiedBatches.Inc()
			return
		}
	}
	tr.AddAttrs(obs.KV("error", "no shards available"))
	http.Error(w, "no shards available", http.StatusServiceUnavailable)
}

func (r *Router) handleLabel(w http.ResponseWriter, req *http.Request) {
	out := readOutbound(w, req)
	if out == nil {
		return
	}
	defer out.unref()
	tr := daemon.StartTrace(r.tracer, req.Header, "router_label", obs.KV("bytes", len(out.body.Bytes())))
	defer tr.Finish()
	// Post-merge every shard serves the identical global model, so ANY
	// live shard answers correctly — that indifference is the point of the
	// collective, and what makes the read path scale with shard count.
	for attempt := 0; attempt < len(r.order); attempt++ {
		up := r.upShards()
		if len(up) == 0 {
			break
		}
		sh := up[int(r.rr.Add(1))%len(up)]
		if r.proxy(w, req, sh, "/label", out, tr) {
			sh.labels.Add(1)
			r.tel.proxiedLabels.Inc()
			return
		}
	}
	tr.AddAttrs(obs.KV("error", "no shards available"))
	http.Error(w, "no shards available", http.StatusServiceUnavailable)
}

// ShardStatus is one member's row in ClusterStats.
type ShardStatus struct {
	URL string `json:"url"`
	Up  bool   `json:"up"`
	// Batches/Points/Labels are what this router proxied to the shard —
	// the ingest distribution the hash ring produced.
	Batches int64 `json:"proxied_batches"`
	Points  int64 `json:"proxied_points"`
	Labels  int64 `json:"proxied_labels"`
	// Epoch is the newest merge epoch this router installed on the shard.
	Epoch int64 `json:"merge_epoch"`
	// Stats is the shard's own /stats snapshot (nil when unreachable).
	Stats *server.Stats `json:"stats,omitempty"`
	Error string        `json:"error,omitempty"`
}

// ClusterStats aggregates the cluster for GET /stats. The top-level
// fields are a compatible superset of the single-daemon Stats JSON —
// seen/accepted/labeled/clusters/role — so existing tooling (the Go
// client's WaitSeen, the chaos harness's scrapes) works unchanged when
// pointed at a router instead of a daemon.
type ClusterStats struct {
	RunID      string  `json:"run_id"`
	Role       string  `json:"role"` // always "router"
	Seen       int64   `json:"seen"`
	Accepted   int64   `json:"accepted"`
	Labeled    int64   `json:"labeled"`
	Clusters   int     `json:"clusters"`
	MergeEpoch int64   `json:"merge_epoch"`
	GlobalSeen int64   `json:"global_seen"`
	ShardsUp   int     `json:"shards_up"`
	Shards     int     `json:"shards"`
	Balance    float64 `json:"ring_balance_cv"`

	ShardDetail []ShardStatus `json:"shard_detail"`
}

// Stats fans /stats out to every shard concurrently and aggregates.
func (r *Router) Stats(ctx context.Context) ClusterStats {
	cs := ClusterStats{
		RunID:      r.cfg.RunID,
		Role:       "router",
		MergeEpoch: r.epoch.Load(),
		Shards:     len(r.order),
		Balance:    r.ring.BalanceCoefficient(r.isUp),
	}
	if li := r.lastInstall.Load(); li != nil {
		cs.GlobalSeen = li.seen
	}
	rows := make([]ShardStatus, len(r.order))
	var wg sync.WaitGroup
	for i, n := range r.order {
		sh := r.shards[n]
		rows[i] = ShardStatus{
			URL: sh.url, Up: sh.up.Load(),
			Batches: sh.batches.Load(), Points: sh.points.Load(), Labels: sh.labels.Load(),
			Epoch: sh.epoch.Load(),
		}
		if !rows[i].Up {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
			defer cancel()
			st, err := client.NewWithHTTPClient(sh.url, r.hc).Stats(cctx)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			rows[i].Stats = &st
		}(i, sh)
	}
	wg.Wait()
	for i := range rows {
		if rows[i].Up {
			cs.ShardsUp++
		}
		if st := rows[i].Stats; st != nil {
			cs.Seen += st.Seen
			cs.Accepted += st.Accepted
			cs.Labeled += st.Labeled
			if st.Clusters > cs.Clusters {
				cs.Clusters = st.Clusters
			}
		}
	}
	cs.ShardDetail = rows
	return cs
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, r.Stats(req.Context()))
}

// ringInfo is the GET /ring payload.
type ringInfo struct {
	VNodes    int                `json:"vnodes_per_shard"`
	Ownership map[string]float64 `json:"ownership"`
	Balance   float64            `json:"balance_cv"`
	Up        map[string]bool    `json:"up"`
}

func (r *Router) handleRing(w http.ResponseWriter, req *http.Request) {
	info := ringInfo{
		VNodes:    vnodes,
		Ownership: r.ring.Ownership(r.isUp),
		Balance:   r.ring.BalanceCoefficient(r.isUp),
		Up:        make(map[string]bool, len(r.order)),
	}
	for _, n := range r.order {
		info.Up[n] = r.shards[n].up.Load()
	}
	daemon.WriteJSON(w, http.StatusOK, info)
}

func (r *Router) handleMerge(w http.ResponseWriter, req *http.Request) {
	res, err := r.MergeOnce(req.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, res)
}

func (r *Router) handleReady(w http.ResponseWriter, req *http.Request) {
	up := len(r.upShards())
	status := http.StatusOK
	if up == 0 {
		status = http.StatusServiceUnavailable
	}
	daemon.WriteJSON(w, status, map[string]any{
		"ready": up > 0, "shards_up": up, "shards": len(r.order),
	})
}

// OwnerOf reports which shard a producer currently hashes to ("" when no
// shard is up) — diagnostics for tests and the load generator.
func (r *Router) OwnerOf(producer string) string {
	return r.ring.Lookup(producer, r.isUp)
}
