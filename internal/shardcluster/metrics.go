package shardcluster

import "keybin2/internal/obs"

// routerTelemetry is the router's own instrument set (keybin2router_*
// series — the shards keep their keybin2d_* series; scraping both gives
// the cluster view), in a registry of its own that backs GET /metrics.
type routerTelemetry struct {
	reg             *obs.Registry
	proxiedBatches  *obs.Counter
	proxiedLabels   *obs.Counter
	failovers       *obs.Counter
	shardDown       *obs.Counter
	shardUp         *obs.Counter
	mergeEpochs     *obs.Counter
	mergeFailures   *obs.Counter
	mergeSeconds    *obs.Histogram
	mergeStateBytes *obs.Gauge
	mergedSeen      *obs.Gauge
}

func newRouterTelemetry(runID string, r *Router) *routerTelemetry {
	reg := obs.NewRegistry()
	t := &routerTelemetry{
		reg: reg,
		proxiedBatches: reg.Counter("keybin2router_proxied_batches_total",
			"Ingest batches proxied to a shard (after any failover)."),
		proxiedLabels: reg.Counter("keybin2router_proxied_labels_total",
			"Label requests proxied to a shard."),
		failovers: reg.Counter("keybin2router_ingest_failovers_total",
			"Proxied requests re-routed after a shard transport failure."),
		shardDown: reg.Counter("keybin2router_shard_down_total",
			"Shard down transitions (health probes or live-traffic failures)."),
		shardUp: reg.Counter("keybin2router_shard_recovered_total",
			"Shard up transitions after a down period."),
		mergeEpochs: reg.Counter("keybin2router_merge_epochs_total",
			"Completed merge epochs (pull + global refit + install)."),
		mergeFailures: reg.Counter("keybin2router_merge_failures_total",
			"Merge epochs aborted before installing anything."),
		mergeSeconds: reg.Histogram("keybin2router_merge_seconds",
			"End-to-end merge epoch duration.", nil),
		mergeStateBytes: reg.Gauge("keybin2router_merge_state_bytes",
			"Size of the last merged shard state — the histogram-only exchange payload."),
		mergedSeen: reg.Gauge("keybin2router_merged_points",
			"Cluster-wide point count behind the last merged global model."),
	}
	shardsUp := reg.Gauge("keybin2router_shards_up", "Shards currently marked up.")
	reg.Gauge("keybin2router_shards", "Cluster size.").SetInt(int64(len(r.order)))
	epochG := reg.Gauge("keybin2router_merge_epoch", "Newest completed merge epoch.")
	clustersG := reg.Gauge("keybin2router_global_clusters",
		"Clusters in the current global model (0 before the first epoch).")
	reg.GaugeVec("keybin2router_build_info",
		"Constant 1; labels identify this router incarnation.", "run_id").With(runID).Set(1)
	reg.OnCollect(func() {
		shardsUp.SetInt(int64(len(r.upShards())))
		epochG.SetInt(r.epoch.Load())
		if m := r.global.Model(); m != nil {
			clustersG.SetInt(int64(m.K()))
		} else {
			clustersG.Set(0)
		}
	})
	return t
}
