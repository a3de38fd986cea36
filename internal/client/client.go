// Package client is the Go client for keybin2d: binary batched ingest
// with bounded, jittered backpressure retry, producer-tagged idempotent
// batches, label and model queries served from the daemon's live
// snapshot, and a load generator that measures ingest throughput and
// query latency against a running daemon.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/linalg"
	"keybin2/internal/obs"
	"keybin2/internal/server"
	"keybin2/internal/xrand"
)

// ErrBackpressure reports an ingest batch the daemon refused because its
// queue was full; RetryAfter carries the daemon's backoff hint.
type ErrBackpressure struct {
	RetryAfter time.Duration
}

func (e *ErrBackpressure) Error() string {
	return fmt.Sprintf("client: daemon queue full, retry after %s", e.RetryAfter)
}

// ErrNotPrimary reports an ingest a follower replica refused (HTTP 421)
// and the client could not redeem: the client follows the follower's
// X-KB2-Primary hint for exactly one hop per request, so this error
// surfaces only when the follower had no hint to offer (Primary == "")
// or the hinted node itself answered 421 — a topology the caller must
// sort out, not something to retry into.
type ErrNotPrimary struct {
	Primary string
}

func (e *ErrNotPrimary) Error() string {
	return fmt.Sprintf("client: node is a follower replica; ingest must go to the primary at %s", e.Primary)
}

// ErrStaleEpoch reports an ingest rejected by epoch fencing (HTTP 412):
// the node answering is — or believes the request is — behind the
// cluster's fencing epoch. When the client carried a token newer than
// the node's epoch, the NODE is the stale party (a fenced or zombie
// ex-primary); Primary, when present, names the node's best-known
// leader. See internal/server/failover.go for the fencing invariants.
type ErrStaleEpoch struct {
	NodeEpoch    int64
	RequestEpoch int64
	Primary      string
}

func (e *ErrStaleEpoch) Error() string {
	return fmt.Sprintf("client: stale epoch (node %d, request %d, primary %q)",
		e.NodeEpoch, e.RequestEpoch, e.Primary)
}

// ErrRetriesExhausted reports an ingest that gave up after
// RetryPolicy.MaxAttempts refused attempts. Unwrap yields the final
// refusal (an *ErrBackpressure, say), so errors.As sees both.
type ErrRetriesExhausted struct {
	Attempts int
	Last     error
}

func (e *ErrRetriesExhausted) Error() string {
	return fmt.Sprintf("client: gave up after %d attempts: %v", e.Attempts, e.Last)
}

func (e *ErrRetriesExhausted) Unwrap() error { return e.Last }

// RetryPolicy bounds the ingest retry loop behind Ingest and IngestSeq.
// The zero value means defaults: 8 attempts, backoff starting at the
// daemon's hint and doubling to a 5s cap, ±20% jitter. MaxAttempts 1
// sends once: a refusal comes back inside ErrRetriesExhausted, whose
// Unwrap yields it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 8). Negative means retry until ctx expires — the old
	// unbounded behavior, now opt-in.
	MaxAttempts int
	// BaseBackoff floors the first retry wait (default: the daemon's
	// Retry-After hint, or 50ms when the hint is missing). Each further
	// rejection doubles the wait.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 5s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	return p
}

// IngestAck is the daemon's reply to an accepted batch.
type IngestAck struct {
	// Queued is the number of points admitted (0 for a duplicate).
	Queued int `json:"queued"`
	// Seq is the daemon-side WAL sequence (0 when the WAL is disabled or
	// the batch was a duplicate).
	Seq uint64 `json:"seq"`
	// Duplicate reports a batch the daemon had already acknowledged under
	// this producer sequence — a retry whose original ack was lost.
	Duplicate bool `json:"duplicate"`
	// Epoch is the primary's fencing epoch at ack time (0 = unmanaged).
	// The client adopts it as its token for subsequent ingests, which is
	// what fences a zombie ex-primary after a failover.
	Epoch int64 `json:"epoch,omitempty"`
	// TraceID is the distributed trace ID this client stamped on the
	// request (client-side, not part of the daemon's ack JSON): the key
	// for finding the batch's span tree on the daemon's — and, through a
	// router, the owning shard's — /trace endpoint.
	TraceID string `json:"-"`
	// Retries is how many times the send was retried before this answer
	// (client-side, like TraceID): backpressure slept out and, against a
	// replica set, endpoint rotations. 0 for a first-attempt answer.
	Retries int `json:"-"`
}

// Client talks to one keybin2d daemon — or, with SetEndpoints, to a
// replica set: ingest rotates through the endpoint pool on transport
// errors, follower redirects, and stale-epoch rejections until it finds
// the live primary, re-discovering it across automatic failovers.
type Client struct {
	base     string // where reads and control calls go; the pool of one
	hc       *http.Client
	retry    RetryPolicy
	producer string
	pseq     atomic.Uint64
	rng      atomic.Pointer[xrand.Stream] // jitter source (nil → seeded lazily)

	// Ingest targets: pool is the endpoint list (never empty — a client
	// for one daemon has a pool of one, which never rotates), poolIdx the
	// current cursor into it, epoch the newest fencing epoch learned from
	// acks/rejections — sent as the X-KB2-Epoch token on every ingest so a
	// zombie ex-primary answers 412 instead of silently accepting the
	// write.
	pool    atomic.Pointer[[]string]
	poolIdx atomic.Int64
	epoch   atomic.Int64
}

// New builds a client for the daemon at base (e.g. "http://127.0.0.1:7420").
// The transport's socket buffers are sized for ingest batches (tens of
// KB per request): with the default 4 KB buffers every batch body is
// copied and flushed in 4 KB slices, which shows up as measurable CPU at
// millions of points per second.
func New(base string) *Client {
	return NewWithHTTPClient(base, &http.Client{
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConnsPerHost: 16,
			WriteBufferSize:     128 << 10,
			ReadBufferSize:      64 << 10,
		},
	})
}

// NewWithHTTPClient injects a custom http.Client (tests, timeouts).
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: hc}
	c.SetEndpoints()
	return c
}

// SetRetryPolicy replaces the retry policy used by Ingest and IngestSeq.
// Call before issuing requests.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// SetProducer arms idempotent ingest: every tracked batch carries this
// producer id plus a monotonically increasing batch sequence, letting
// the daemon drop retries whose original ack was lost instead of
// double-counting their points. Call before issuing requests.
func (c *Client) SetProducer(id string) { c.producer = id }

// Producer returns the idempotency id set with SetProducer ("" = off).
func (c *Client) Producer() string { return c.producer }

// NextBatchSeq issues the next producer batch sequence. Ingest calls it
// implicitly; use it directly only with IngestSeq or IngestRawSeq.
func (c *Client) NextBatchSeq() uint64 { return c.pseq.Add(1) }

// SetEndpoints points ingest at a replica set: targets rotate through the
// given base URLs on transport errors, unredeemable follower redirects,
// and stale-epoch rejections (backpressure still backs off against the
// same endpoint — the primary is alive, just busy). A 421 hint naming a
// pool member jumps the cursor straight to it. Call before issuing
// requests; an empty list restores the pool of one the client was built
// with.
func (c *Client) SetEndpoints(urls ...string) {
	if len(urls) == 0 {
		urls = []string{c.base}
	}
	eps := make([]string, len(urls))
	for i, u := range urls {
		eps[i] = strings.TrimRight(u, "/")
	}
	c.pool.Store(&eps)
	c.poolIdx.Store(0)
}

// SetKnownEpoch arms the client's fencing token directly — chaos
// harnesses use it to prove a revived zombie rejects a tokened write.
// Normal clients learn the epoch from acks and 412s instead.
func (c *Client) SetKnownEpoch(e int64) { c.epoch.Store(e) }

// KnownEpoch is the newest fencing epoch this client has learned (0 =
// none seen).
func (c *Client) KnownEpoch() int64 { return c.epoch.Load() }

// learnEpoch adopts a newer fencing epoch (monotone CAS max).
func (c *Client) learnEpoch(e int64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// currentBase is the ingest target: the endpoint under the pool cursor.
func (c *Client) currentBase() string {
	eps := *c.pool.Load()
	return eps[int(c.poolIdx.Load())%len(eps)]
}

// rotateEndpoint advances the pool cursor past a failed endpoint, unless
// another goroutine already moved it.
func (c *Client) rotateEndpoint(from string) {
	if c.currentBase() == from {
		c.poolIdx.Add(1)
	}
}

// adoptEndpoint points the pool cursor at a hinted primary when the hint
// is a pool member — the next ingest goes straight there.
func (c *Client) adoptEndpoint(hint string) {
	for i, u := range *c.pool.Load() {
		if u == hint {
			c.poolIdx.Store(int64(i))
			return
		}
	}
}

// postTraced issues one POST stamped with the given span context as a
// traceparent header — every client request names its own distributed
// trace, which servers join so the request's server-side span tree is
// findable by the ID the client holds.
func (c *Client) postTraced(ctx context.Context, base, path string, body []byte, pseq uint64, sc obs.SpanContext) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	sc.Inject(req.Header)
	if c.producer != "" && pseq > 0 {
		req.Header.Set("X-Producer", c.producer)
		req.Header.Set("X-Batch-Seq", strconv.FormatUint(pseq, 10))
	}
	if path == "/ingest" {
		if e := c.epoch.Load(); e > 0 {
			// The fencing token: a node whose epoch is older than this
			// answers 412 instead of accepting the write (zombie fencing).
			req.Header.Set("X-KB2-Epoch", strconv.FormatInt(e, 10))
		}
	}
	return c.hc.Do(req)
}

// StatusError is a non-2xx HTTP response surfaced as an error. Callers
// that must branch on the code — the failover supervisor distinguishes
// an own-epoch 409 fence refusal from transport failure — unwrap it
// with errors.As; everything else just prints it.
type StatusError struct {
	Code   int    // HTTP status code
	Status string // e.g. "409 Conflict"
	Msg    string // trimmed response body (first 512 bytes)
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %s: %s", e.Status, e.Msg)
}

func httpError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &StatusError{Code: resp.StatusCode, Status: resp.Status, Msg: strings.TrimSpace(string(msg))}
}

// Ingest submits one batch under the client's next producer sequence
// (untagged when no producer is set) and returns the daemon's ack (WAL
// sequence, duplicate flag, retries). It is IngestSeq with the sequence
// chosen by the client.
func (c *Client) Ingest(ctx context.Context, batch *linalg.Matrix) (IngestAck, error) {
	var pseq uint64
	if c.producer != "" {
		pseq = c.NextBatchSeq()
	}
	return c.IngestSeq(ctx, batch, pseq)
}

// IngestSeq submits one batch tagged with a producer sequence the caller
// chose (0 = untagged), absorbing backpressure with bounded, jittered
// exponential backoff under the client's RetryPolicy. Every retry
// re-sends the SAME sequence, so a daemon that accepted the batch but
// lost the ack dedupes the re-send. This is the in-situ producer loop in
// miniature: the simulation yields for the backoff instead of stalling
// inside a blocked send — and gives up, loudly, instead of spinning
// forever against a wedged daemon.
func (c *Client) IngestSeq(ctx context.Context, batch *linalg.Matrix, pseq uint64) (IngestAck, error) {
	return c.ingestRawRetry(ctx, server.EncodeBatch(batch), batch.Rows, pseq, c.retry.withDefaults())
}

// IngestRawSeq makes ONE attempt to send a batch already in wire form
// (see server.EncodeBatch), tagged with pseq: a full daemon queue comes
// back as *ErrBackpressure, for the caller to pace itself. A producer
// that owns its pacing encodes once and resends the bytes; rows is the
// batch's row count, used only for the fallback ack. The daemon still
// validates the frame, so a malformed raw buffer is rejected, not
// mis-ingested.
func (c *Client) IngestRawSeq(ctx context.Context, raw []byte, rows int, pseq uint64) (IngestAck, error) {
	return c.ingestRawSeqTo(ctx, c.currentBase(), raw, rows, pseq)
}

func (c *Client) ingestRawSeqTo(ctx context.Context, base string, raw []byte, rows int, pseq uint64) (IngestAck, error) {
	ack, err := c.ingestRawTo(ctx, base, raw, rows, pseq)
	var np *ErrNotPrimary
	if errors.As(err, &np) && np.Primary != "" {
		// A follower told us who the primary is: follow the hint for ONE
		// hop with the identical bytes and sequence (the primary dedupes a
		// batch the follower somehow already forwarded). A second 421
		// surfaces as ErrNotPrimary — hint-chasing loops are a topology
		// bug, not something to absorb. In replica-set mode the cursor
		// jumps to a hinted pool member so later batches skip the hop.
		hint := strings.TrimRight(np.Primary, "/")
		c.adoptEndpoint(hint)
		return c.ingestRawTo(ctx, hint, raw, rows, pseq)
	}
	return ack, err
}

func (c *Client) ingestRawTo(ctx context.Context, base string, raw []byte, rows int, pseq uint64) (IngestAck, error) {
	var ack IngestAck
	sc := obs.NewSpanContext()
	resp, err := c.postTraced(ctx, base, "/ingest", raw, pseq, sc)
	if err != nil {
		return ack, err
	}
	ack.TraceID = sc.TraceID
	defer resp.Body.Close()
	if v := resp.Header.Get("X-KB2-Epoch"); v != "" {
		// Any epoch the fleet shows us — on acks, redirects, or fencing
		// rejections — arms the token for subsequent ingests.
		if e, perr := strconv.ParseInt(v, 10, 64); perr == nil {
			c.learnEpoch(e)
		}
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		if derr := json.NewDecoder(resp.Body).Decode(&ack); derr != nil {
			// The batch WAS accepted; a malformed ack body shouldn't turn
			// success into a retry (which would re-send the batch).
			ack = IngestAck{Queued: rows, TraceID: sc.TraceID}
		}
		c.learnEpoch(ack.Epoch)
		return ack, nil
	case http.StatusTooManyRequests:
		return ack, &ErrBackpressure{RetryAfter: retryAfter(resp)}
	case http.StatusMisdirectedRequest:
		return ack, &ErrNotPrimary{Primary: resp.Header.Get("X-KB2-Primary")}
	case http.StatusPreconditionFailed:
		se := &ErrStaleEpoch{}
		var body struct {
			NodeEpoch    int64  `json:"node_epoch"`
			RequestEpoch int64  `json:"request_epoch"`
			Primary      string `json:"primary"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&body); derr == nil {
			se.NodeEpoch, se.RequestEpoch, se.Primary = body.NodeEpoch, body.RequestEpoch, body.Primary
			c.learnEpoch(body.NodeEpoch)
		}
		return ack, se
	default:
		return ack, httpError(resp)
	}
}

// retryAfter extracts the daemon's backoff hint: the millisecond header
// when present, else the RFC Retry-After seconds, else a fixed fallback.
func retryAfter(resp *http.Response) time.Duration {
	if ms, err := strconv.ParseInt(resp.Header.Get("X-Retry-After-Ms"), 10, 64); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return 250 * time.Millisecond
}

// retryJitter is the ± fraction applied to each retry wait, so a fleet of
// producers rejected together doesn't retry together.
const retryJitter = 0.2

// jitter scales wait by 1±retryJitter.
func (c *Client) jitter(wait time.Duration) time.Duration {
	rng := c.rng.Load()
	if rng == nil {
		rng = xrand.New(time.Now().UnixNano())
		if !c.rng.CompareAndSwap(nil, rng) {
			rng = c.rng.Load()
		}
	}
	f := 1 + retryJitter*(2*rng.Float64()-1)
	return time.Duration(float64(wait) * f)
}

// ingestRawRetry is the one retrying send: IngestSeq and the load
// generator go through it, over wire bytes encoded once, so retries
// resend the same bytes under the same sequence. p must already have
// defaults applied; the answer carries the retries it took. With a pool
// of one only backpressure is retried, as ever. With a replica set
// (SetEndpoints) the loop additionally rotates to the next pool
// endpoint on transport errors, unredeemed follower redirects, and
// stale-epoch rejections — the primary re-discovery that rides out an
// automatic failover — under the same bounded, jittered backoff.
func (c *Client) ingestRawRetry(ctx context.Context, raw []byte, rows int, pseq uint64, p RetryPolicy) (IngestAck, error) {
	wait := time.Duration(0)
	for attempt := 1; ; attempt++ {
		base := c.currentBase()
		ack, err := c.ingestRawSeqTo(ctx, base, raw, rows, pseq)
		ack.Retries = attempt - 1
		if err == nil {
			return ack, nil
		}
		var bp *ErrBackpressure
		switch {
		case errors.As(err, &bp):
			// The endpoint is alive and is the primary — back off against
			// it, never rotate away from it.
		case c.rotatableError(ctx, err):
			c.rotateEndpoint(base)
		default:
			return ack, err
		}
		if ctx.Err() != nil {
			return ack, ctx.Err()
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return ack, &ErrRetriesExhausted{Attempts: attempt, Last: err}
		}
		if wait == 0 {
			if bp != nil {
				wait = bp.RetryAfter
			}
			if wait < p.BaseBackoff {
				wait = p.BaseBackoff
			}
		} else {
			wait *= 2
		}
		if wait > p.MaxBackoff {
			wait = p.MaxBackoff
		}
		select {
		case <-time.After(c.jitter(wait)):
		case <-ctx.Done():
			return ack, ctx.Err()
		}
	}
}

// rotatableError reports whether an ingest failure should move a
// replica-set client to the next pool endpoint: the node is down
// (transport error), not the primary (unredeemed 421), or fenced behind
// the cluster epoch (412). Never with fewer than two endpoints: there is
// nowhere to rotate to, and a lone daemon's errors go to the caller as
// they always have. Transport timeouts rotate too — a black-holed endpoint looks exactly like one —
// so the only excluded case is the caller's own context expiring, which
// is checked against ctx itself (net/http timeout errors also match
// errors.Is(err, context.DeadlineExceeded), so matching on the error
// would misread a dead endpoint as a caller cancellation).
func (c *Client) rotatableError(ctx context.Context, err error) bool {
	if len(*c.pool.Load()) < 2 {
		return false
	}
	var np *ErrNotPrimary
	var se *ErrStaleEpoch
	var ue *url.Error
	return errors.As(err, &np) || errors.As(err, &se) ||
		(errors.As(err, &ue) && ctx.Err() == nil)
}

// LabelResult carries /label's reply: per-point labels and the generation
// of the model that produced them (0 = warmup, all labels are noise).
type LabelResult struct {
	Labels   []int `json:"labels"`
	ModelGen int64 `json:"model_gen"`
	Clusters int   `json:"clusters"`
}

// Label asks the daemon to label a batch of raw points under its current
// model snapshot.
func (c *Client) Label(ctx context.Context, batch *linalg.Matrix) (LabelResult, error) {
	var out LabelResult
	resp, err := c.postTraced(ctx, c.base, "/label", server.EncodeBatch(batch), 0, obs.NewSpanContext())
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, httpError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	if len(out.Labels) != batch.Rows {
		return out, fmt.Errorf("client: %d labels for %d points", len(out.Labels), batch.Rows)
	}
	return out, nil
}

// do issues one body-less request against the daemon — a read (GET) or a
// replica-set control call (POST, stamped with a fresh trace) — and
// returns its 200 response, whose body the caller closes; any other
// status is a *StatusError.
func (c *Client) do(ctx context.Context, method, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		obs.NewSpanContext().Inject(req.Header)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, httpError(resp)
	}
	return resp, nil
}

// Model fetches and decodes the daemon's current model snapshot.
func (c *Client) Model(ctx context.Context) (*core.Model, error) {
	resp, err := c.do(ctx, http.MethodGet, "/model")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return core.DecodeModel(blob)
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (server.Stats, error) {
	var out server.Stats
	resp, err := c.do(ctx, http.MethodGet, "/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// Metrics scrapes the daemon's /metrics endpoint and returns the parsed
// sample values keyed by series identity — e.g.
// "keybin2d_ingest_accepted_points_total" or
// `keybin2d_ingest_batches_total{result="accepted"}`. Histograms appear
// expanded as their _bucket/_sum/_count series.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseExposition(resp.Body)
}

// Ready reports the daemon's /readyz verdict: nil when ready, an error
// describing why not (draining, wedged WAL) otherwise.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Promote asks a follower replica to become the primary (POST /promote),
// returning its applied WAL sequence — the horizon the new primary will
// number writes from. The node mints the next fencing epoch itself. A
// node that is already a primary answers 409, which surfaces as an
// error.
func (c *Client) Promote(ctx context.Context) (uint64, error) {
	seq, _, err := c.PromoteEpoch(ctx, 0)
	return seq, err
}

// PromoteEpoch is Promote with an explicit fencing epoch (0 = let the
// node mint current+1): the supervisor's election path, where the epoch
// is chosen centrally so the new primary outranks every fenced loser.
// Returns the promoted node's applied sequence and its (now current)
// epoch. The client adopts the epoch as its own token.
func (c *Client) PromoteEpoch(ctx context.Context, epoch int64) (uint64, int64, error) {
	path := "/promote"
	if epoch > 0 {
		path += "?epoch=" + strconv.FormatInt(epoch, 10)
	}
	resp, err := c.do(ctx, http.MethodPost, path)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var out struct {
		AppliedSeq uint64 `json:"applied_seq"`
		Epoch      int64  `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, err
	}
	c.learnEpoch(out.Epoch)
	return out.AppliedSeq, out.Epoch, nil
}

// Fence fences the node at the given epoch (POST /fence). With a primary
// URL, a fenced ex-primary demotes in place into a follower of it, and a
// follower re-points its tail there; without one the node is only cut
// off the write path. Used by the failover supervisor; idempotent at the
// same epoch.
func (c *Client) Fence(ctx context.Context, epoch int64, primary string) error {
	q := "/fence?epoch=" + strconv.FormatInt(epoch, 10)
	if primary != "" {
		q += "&primary=" + url.QueryEscape(strings.TrimRight(primary, "/"))
	}
	return c.raiseEpoch(ctx, q, epoch)
}

// AdoptEpoch raises the epoch of a CURRENT primary (POST /epoch) — the
// supervisor's adoption path when it first manages an unmanaged group or
// re-learns a restarted primary. A follower answers 409.
func (c *Client) AdoptEpoch(ctx context.Context, epoch int64) error {
	return c.raiseEpoch(ctx, "/epoch?epoch="+strconv.FormatInt(epoch, 10), epoch)
}

// raiseEpoch issues a control call that moves the node to epoch and, once
// the node has agreed, adopts the epoch as this client's own token.
func (c *Client) raiseEpoch(ctx context.Context, path string, epoch int64) error {
	resp, err := c.do(ctx, http.MethodPost, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	c.learnEpoch(epoch)
	return nil
}

// WaitSeen polls /stats until the daemon has applied at least n points or
// ctx expires — how a producer confirms its acknowledged-but-queued
// batches have landed in the model state.
func (c *Client) WaitSeen(ctx context.Context, n int64) error {
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if st.Seen >= n {
			return nil
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("client: daemon at %d of %d points: %w", st.Seen, n, ctx.Err())
		}
	}
}
