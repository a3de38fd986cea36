package client

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

const (
	// queryBatch is the points per label query.
	queryBatch = 64
	// loadComponents is the synthetic mixture's cluster count.
	loadComponents = 4
)

// LoadConfig drives the load generator: concurrent ingesters pushing
// synthetic mixture batches while query workers hammer /label, measuring
// both sides of the single-writer/many-reader architecture at once.
type LoadConfig struct {
	// Points is the total ingest volume (default 100000).
	Points int
	// Dims must match the daemon's stream dimensionality (default 16).
	Dims int
	// BatchSize is points per ingest batch (default 512).
	BatchSize int
	// Ingesters is the number of concurrent ingest workers (default 4).
	Ingesters int
	// QueryWorkers label-query workers run for the whole ingest window
	// (default 2), each asking for queryBatch points per query.
	QueryWorkers int
	// Seed drives the synthetic data (ingester i uses Seed+i).
	Seed int64
	// ReadAddrs are additional read endpoints — follower replicas. Label
	// queries are split round-robin across the primary and these, the
	// read-path scale-out the replication tier exists for; ingest always
	// goes to the primary.
	ReadAddrs []string
	// ProducerPrefix, when set, gives each ingest worker its OWN producer
	// identity ("<prefix>-<worker>") instead of sharing c's. Against a
	// shard router that partitions by producer, this is what spreads the
	// workers across the hash ring; against a single daemon it simply
	// means per-worker dedupe sequences.
	ProducerPrefix string
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Points <= 0 {
		c.Points = 100000
	}
	if c.Dims <= 0 {
		c.Dims = 16
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.Ingesters <= 0 {
		c.Ingesters = 4
	}
	if c.QueryWorkers < 0 {
		c.QueryWorkers = 0
	} else if c.QueryWorkers == 0 {
		c.QueryWorkers = 2
	}
	return c
}

// LoadReport is the load generator's measurement: keybin2load prints it
// as its JSON report.
type LoadReport struct {
	Points    int `json:"points"`
	Dims      int `json:"dims"`
	BatchSize int `json:"batch_size"`
	Ingesters int `json:"ingesters"`

	IngestSeconds      float64 `json:"ingest_seconds"`
	IngestPointsPerSec float64 `json:"ingest_points_per_sec"`
	// Backpressure counts the retries the ingesters' sends made, the sum
	// of their acks' Retries: 429 rejections slept out (and, against a
	// replica set, endpoint rotations).
	Backpressure int64 `json:"backpressure_rejections"`

	QueryWorkers int     `json:"query_workers"`
	Queries      int64   `json:"queries"`
	QueryP50Ms   float64 `json:"query_p50_ms"`
	QueryP95Ms   float64 `json:"query_p95_ms"`
	QueryP99Ms   float64 `json:"query_p99_ms"`

	FinalSeen     int64 `json:"final_seen"`
	FinalRefits   int64 `json:"final_refits"`
	FinalClusters int   `json:"final_clusters"`

	// SlowestIngestMs is the wall time of the slowest single ingest
	// request the run observed (retry loops included), and
	// SlowestIngestTrace the trace ID that request stamped — paste it
	// into GET /trace on the daemon (or router + shard) to see where the
	// time went, span by span.
	SlowestIngestMs    float64 `json:"slowest_ingest_ms"`
	SlowestIngestTrace string  `json:"slowest_ingest_trace,omitempty"`
}

// RunLoad ingests cfg.Points synthetic points through c while concurrently
// querying labels, waits for the daemon to apply everything, and reports
// throughput and latency. Queries run against the live snapshot for the
// whole ingest window — the report's latency percentiles therefore include
// queries answered while refits were happening underneath.
func RunLoad(ctx context.Context, c *Client, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	rep := LoadReport{
		Points: cfg.Points, Dims: cfg.Dims, BatchSize: cfg.BatchSize,
		Ingesters: cfg.Ingesters, QueryWorkers: cfg.QueryWorkers,
	}
	spec := synth.AutoMixture(loadComponents, cfg.Dims, 6, 1, xrand.New(cfg.Seed))

	ingestCtx, stopQueries := context.WithCancel(ctx)
	defer stopQueries()

	// Pre-generate every payload before the clock starts: the run measures
	// the daemon's ingest path, not the generator's mixture sampler or the
	// wire encoder. Ingest batches are encoded to wire form once (retries
	// resend the same bytes); each query worker cycles a small pool of
	// pre-sampled batches.
	type rawBatch struct {
		raw  []byte
		rows int
	}
	shards := make([][]rawBatch, cfg.Ingesters)
	for w := 0; w < cfg.Ingesters; w++ {
		lo, hi := synth.Shard(cfg.Points, cfg.Ingesters, w)
		rng := xrand.New(cfg.Seed + int64(w))
		for n := hi - lo; n > 0; {
			sz := cfg.BatchSize
			if sz > n {
				sz = n
			}
			batch, _ := spec.Sample(sz, rng)
			shards[w] = append(shards[w], rawBatch{raw: server.EncodeBatch(batch), rows: sz})
			n -= sz
		}
	}
	const queryPool = 8
	queryBatches := make([][]*linalg.Matrix, cfg.QueryWorkers)
	for q := 0; q < cfg.QueryWorkers; q++ {
		rng := xrand.New(cfg.Seed + 1000 + int64(q))
		for i := 0; i < queryPool; i++ {
			batch, _ := spec.Sample(queryBatch, rng)
			queryBatches[q] = append(queryBatches[q], batch)
		}
	}

	// Query workers: label pre-sampled mixture batches until ingest
	// finishes. With ReadAddrs set the workers are spread round-robin over
	// the primary and the replicas, so the latency percentiles measure the
	// scaled-out read path.
	readers := []*Client{c}
	for _, addr := range cfg.ReadAddrs {
		readers = append(readers, New(addr))
	}
	var qwg sync.WaitGroup
	latCh := make(chan []float64, cfg.QueryWorkers)
	var queryErr atomic.Pointer[error]
	for q := 0; q < cfg.QueryWorkers; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			reader := readers[q%len(readers)]
			var lats []float64
			for i := 0; ingestCtx.Err() == nil; i++ {
				batch := queryBatches[q][i%queryPool]
				t0 := time.Now()
				if _, err := reader.Label(ingestCtx, batch); err != nil {
					if ingestCtx.Err() == nil {
						queryErr.Store(&err)
					}
					break
				}
				lats = append(lats, float64(time.Since(t0).Microseconds())/1000)
			}
			latCh <- lats
		}(q)
	}

	// Ingest workers: split the volume, absorb backpressure through the
	// client's bounded jittered retry loop (each retry counted off the
	// ack, not hidden). Retries reuse the batch's producer sequence, so
	// even under heavy backpressure no batch can be double-applied.
	pol := RetryPolicy{
		MaxAttempts: 50, // load runs saturate on purpose; be patient, not infinite
	}.withDefaults()
	var backpressure atomic.Int64
	start := time.Now()
	var iwg sync.WaitGroup
	var ingestErr atomic.Pointer[error]
	var slowMu sync.Mutex
	var slowestDur time.Duration
	var slowestTrace string
	for w := 0; w < cfg.Ingesters; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		sender := c
		if cfg.ProducerPrefix != "" {
			// Per-worker producer: own identity, own sequence counter,
			// shared transport (the connection pool is per-host anyway).
			sender = NewWithHTTPClient(c.base, c.hc)
			sender.producer = fmt.Sprintf("%s-%d", cfg.ProducerPrefix, w)
		}
		iwg.Add(1)
		go func(w int, sender *Client) {
			defer iwg.Done()
			for _, b := range shards[w] {
				if ctx.Err() != nil {
					return
				}
				var pseq uint64
				if sender.Producer() != "" {
					pseq = sender.NextBatchSeq()
				}
				t0 := time.Now()
				ack, err := sender.ingestRawRetry(ctx, b.raw, b.rows, pseq, pol)
				if err != nil {
					if ctx.Err() == nil {
						ingestErr.Store(&err)
					}
					return
				}
				backpressure.Add(int64(ack.Retries))
				d := time.Since(t0)
				slowMu.Lock()
				if d > slowestDur {
					slowestDur, slowestTrace = d, ack.TraceID
				}
				slowMu.Unlock()
			}
		}(w, sender)
	}
	iwg.Wait()
	ingestWall := time.Since(start)
	stopQueries()
	qwg.Wait()

	if p := ingestErr.Load(); p != nil {
		return rep, fmt.Errorf("load: ingest: %w", *p)
	}
	if p := queryErr.Load(); p != nil {
		return rep, fmt.Errorf("load: query: %w", *p)
	}

	var lats []float64
	for q := 0; q < cfg.QueryWorkers; q++ {
		lats = append(lats, <-latCh...)
	}
	sort.Float64s(lats)
	rep.Queries = int64(len(lats))
	rep.QueryP50Ms = percentile(lats, 0.50)
	rep.QueryP95Ms = percentile(lats, 0.95)
	rep.QueryP99Ms = percentile(lats, 0.99)
	rep.Backpressure = backpressure.Load()
	rep.SlowestIngestMs = float64(slowestDur.Microseconds()) / 1000
	rep.SlowestIngestTrace = slowestTrace
	rep.IngestSeconds = ingestWall.Seconds()
	if rep.IngestSeconds > 0 {
		rep.IngestPointsPerSec = float64(cfg.Points) / rep.IngestSeconds
	}

	// The daemon acknowledged every batch; wait until the writer has
	// applied them so FinalSeen reflects the full volume.
	if err := c.WaitSeen(ctx, int64(cfg.Points)); err != nil {
		return rep, err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return rep, err
	}
	rep.FinalSeen = st.Seen
	rep.FinalRefits = st.Refits
	rep.FinalClusters = st.Clusters
	return rep, nil
}

// percentile returns the p-quantile of sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
