package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// fakePrimary acks every ingest at the given epoch and records the
// epoch tokens requests carried.
func fakePrimary(t *testing.T, epoch string) (*httptest.Server, *atomic.Int64, func() string) {
	t.Helper()
	var hits atomic.Int64
	var lastToken atomic.Pointer[string]
	empty := ""
	lastToken.Store(&empty)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		tok := r.Header.Get("X-KB2-Epoch")
		lastToken.Store(&tok)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-KB2-Epoch", epoch)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"queued":8,"seq":1,"epoch":`+epoch+`}`)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits, func() string { return *lastToken.Load() }
}

func poolRetry() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

// TestPoolRotatesOffFollower: the first endpoint answers an unredeemable
// 421 (no hint), so the pool client must rotate to the second and land
// the batch there, learning the primary's epoch from the ack.
func TestPoolRotatesOffFollower(t *testing.T) {
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "replica: follower role", http.StatusMisdirectedRequest)
	}))
	defer follower.Close()
	primary, hits, _ := fakePrimary(t, "2")

	c := client.New(follower.URL)
	c.SetEndpoints(follower.URL, primary.URL)
	c.SetRetryPolicy(poolRetry())
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	ack, err := c.Ingest(context.Background(), batch)
	if err != nil {
		t.Fatalf("pool ingest: %v", err)
	}
	if ack.Epoch != 2 || c.KnownEpoch() != 2 {
		t.Fatalf("ack epoch %d / known %d, want 2/2", ack.Epoch, c.KnownEpoch())
	}
	if hits.Load() != 1 {
		t.Fatalf("primary hits = %d, want 1", hits.Load())
	}
	// The cursor stuck: the next batch goes straight to the primary.
	if _, err := c.Ingest(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Fatalf("primary hits = %d, want 2 (no re-probe of the follower)", hits.Load())
	}
}

// TestPoolRotatesOffDeadEndpoint: a connection-refused endpoint is a
// rotatable transport error, not a terminal failure.
func TestPoolRotatesOffDeadEndpoint(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // the address now refuses connections
	primary, _, _ := fakePrimary(t, "3")

	c := client.New(deadURL)
	c.SetEndpoints(deadURL, primary.URL)
	c.SetRetryPolicy(poolRetry())
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	ack, err := c.Ingest(context.Background(), batch)
	if err != nil {
		t.Fatalf("pool ingest across dead endpoint: %v", err)
	}
	if ack.Epoch != 3 || c.KnownEpoch() != 3 {
		t.Fatalf("epoch learned = %d/%d, want 3", ack.Epoch, c.KnownEpoch())
	}
}

// TestPoolRotatesOffFencedZombie: a 412 from a fenced ex-primary rotates
// to the next endpoint; the request that hit the zombie carried the
// client's epoch token (that token IS what fenced it).
func TestPoolRotatesOffFencedZombie(t *testing.T) {
	var zombieToken atomic.Pointer[string]
	empty := ""
	zombieToken.Store(&empty)
	zombie := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok := r.Header.Get("X-KB2-Epoch")
		zombieToken.Store(&tok)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusPreconditionFailed)
		json.NewEncoder(w).Encode(map[string]any{
			"error": "stale epoch", "node_epoch": 1, "request_epoch": 2,
		})
	}))
	defer zombie.Close()
	primary, _, _ := fakePrimary(t, "2")

	c := client.New(zombie.URL)
	c.SetEndpoints(zombie.URL, primary.URL)
	c.SetRetryPolicy(poolRetry())
	c.SetKnownEpoch(2)
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	if _, err := c.Ingest(context.Background(), batch); err != nil {
		t.Fatalf("pool ingest across fenced zombie: %v", err)
	}
	if got := *zombieToken.Load(); got != "2" {
		t.Fatalf("zombie saw token %q, want 2", got)
	}
}

// TestStaleEpochIsTerminalWithoutPool: in single-node mode a 412 is a
// typed terminal error carrying the node's self-description — there is
// nowhere to rotate.
func TestStaleEpochIsTerminalWithoutPool(t *testing.T) {
	var hits atomic.Int64
	zombie := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusPreconditionFailed)
		json.NewEncoder(w).Encode(map[string]any{
			"error": "stale epoch", "node_epoch": 4, "request_epoch": 7, "primary": "http://elsewhere",
		})
	}))
	defer zombie.Close()

	c := client.New(zombie.URL)
	c.SetRetryPolicy(poolRetry())
	c.SetKnownEpoch(7)
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	_, err := c.Ingest(context.Background(), batch)
	var se *client.ErrStaleEpoch
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ErrStaleEpoch", err)
	}
	if se.NodeEpoch != 4 || se.RequestEpoch != 7 || se.Primary != "http://elsewhere" {
		t.Fatalf("stale-epoch detail = %+v", se)
	}
	if hits.Load() != 1 {
		t.Fatalf("zombie hit %d times, want 1 (terminal, not retried)", hits.Load())
	}
	if c.KnownEpoch() != 7 {
		t.Fatalf("known epoch = %d; a LOWER node epoch must never regress the token", c.KnownEpoch())
	}
}

// TestAdoptEndpointOnHint: when a pool member's 421 hint names another
// pool member, the cursor jumps there — later batches skip the extra hop.
func TestAdoptEndpointOnHint(t *testing.T) {
	primary, hits, _ := fakePrimary(t, "1")
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-KB2-Primary", primary.URL)
		http.Error(w, "replica: follower role", http.StatusMisdirectedRequest)
	}))
	defer follower.Close()

	c := client.New(follower.URL)
	c.SetEndpoints(follower.URL, primary.URL)
	c.SetRetryPolicy(poolRetry())
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	if _, err := c.Ingest(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Fatalf("primary hits = %d, want 2 (second batch went direct)", hits.Load())
	}
}

// TestSetEndpointsEmptyRestoresSingleNode guards the escape hatch.
func TestSetEndpointsEmptyRestoresSingleNode(t *testing.T) {
	primary, hits, _ := fakePrimary(t, "1")
	c := client.New(primary.URL)
	c.SetEndpoints("http://127.0.0.1:1", primary.URL)
	c.SetEndpoints() // back to single-node: the base URL
	c.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 1})
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	if _, err := c.Ingest(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 {
		t.Fatalf("primary hits = %d, want 1", hits.Load())
	}
}
