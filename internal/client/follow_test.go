package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"keybin2/internal/client"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// TestIngestFollowsPrimaryHint: a 421 carrying X-KB2-Primary is redeemed
// by ONE re-send to the hinted node — same bytes, same producer sequence —
// so a producer pointed at a demoted node keeps flowing after a failover.
func TestIngestFollowsPrimaryHint(t *testing.T) {
	var primaryBody []byte
	var primaryProducer, primarySeq string
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryBody, _ = io.ReadAll(r.Body)
		primaryProducer = r.Header.Get("X-Producer")
		primarySeq = r.Header.Get("X-Batch-Seq")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"queued":64,"seq":9}`)
	}))
	defer primary.Close()
	var followerHits atomic.Int64
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followerHits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-KB2-Primary", primary.URL)
		http.Error(w, "replica: follower role", http.StatusMisdirectedRequest)
	}))
	defer follower.Close()

	c := client.New(follower.URL)
	c.SetProducer("prod-1")
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(64, xrand.New(2))
	ack, err := c.Ingest(context.Background(), batch)
	if err != nil {
		t.Fatalf("ingest through follower hint: %v", err)
	}
	if ack.Queued != 64 || ack.Seq != 9 {
		t.Fatalf("ack = %+v, want the primary's ack", ack)
	}
	if followerHits.Load() != 1 {
		t.Fatalf("follower hit %d times, want 1", followerHits.Load())
	}
	if !bytes.Equal(primaryBody, server.EncodeBatch(batch)) {
		t.Fatal("primary received different bytes than the original batch")
	}
	if primaryProducer != "prod-1" || primarySeq != "1" {
		t.Fatalf("primary saw producer=%q seq=%q — the hop must keep the idempotency identity",
			primaryProducer, primarySeq)
	}
}

// TestIngestNotPrimaryNoHint: a hintless 421 stays a typed error — there
// is nowhere to follow.
func TestIngestNotPrimaryNoHint(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "replica: follower role", http.StatusMisdirectedRequest)
	}))
	defer ts.Close()
	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	_, err := client.New(ts.URL).Ingest(context.Background(), batch)
	var np *client.ErrNotPrimary
	if !errors.As(err, &np) {
		t.Fatalf("err = %v, want ErrNotPrimary", err)
	}
	if np.Primary != "" {
		t.Fatalf("Primary = %q, want empty", np.Primary)
	}
}

// TestIngestHintChaseBounded: two followers hinting at each other must
// produce exactly two requests and a typed error, not a loop.
func TestIngestHintChaseBounded(t *testing.T) {
	var hitsA, hitsB atomic.Int64
	var urlB string
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitsA.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-KB2-Primary", urlB)
		http.Error(w, "replica: follower role", http.StatusMisdirectedRequest)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitsB.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-KB2-Primary", a.URL)
		http.Error(w, "replica: follower role", http.StatusMisdirectedRequest)
	}))
	defer b.Close()
	urlB = b.URL

	spec := synth.AutoMixture(2, 3, 6, 1, xrand.New(1))
	batch, _ := spec.Sample(8, xrand.New(2))
	_, err := client.New(a.URL).Ingest(context.Background(), batch)
	var np *client.ErrNotPrimary
	if !errors.As(err, &np) {
		t.Fatalf("err = %v, want ErrNotPrimary", err)
	}
	if np.Primary != a.URL {
		t.Fatalf("Primary = %q, want the second hop's hint %q", np.Primary, a.URL)
	}
	if hitsA.Load() != 1 || hitsB.Load() != 1 {
		t.Fatalf("hits A=%d B=%d, want exactly one each", hitsA.Load(), hitsB.Load())
	}
}
