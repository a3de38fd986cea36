package failover_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/failover"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// partitionProxy is a TCP forwarder with a black-hole switch: while cut,
// established pipes are severed and new connections are accepted but
// never answered — the asymmetric partition where the node behind it is
// alive and serving, but unreachable from the rest of the replica set.
type partitionProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	cut   bool
	conns map[net.Conn]struct{}
}

func newPartitionProxy(t *testing.T, backendURL string) *partitionProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &partitionProxy{
		ln:      ln,
		backend: backendURL[len("http://"):],
		conns:   map[net.Conn]struct{}{},
	}
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *partitionProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *partitionProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		cut := p.cut
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		go p.handle(c, cut)
	}
}

func (p *partitionProxy) handle(c net.Conn, cut bool) {
	if cut {
		// Black hole: swallow the request bytes, never answer. The
		// connection dies when the test heals or tears down.
		io.Copy(io.Discard, c)
		p.drop(c)
		return
	}
	b, err := net.Dial("tcp", p.backend)
	if err != nil {
		c.Close()
		p.drop(c)
		return
	}
	p.mu.Lock()
	p.conns[b] = struct{}{}
	p.mu.Unlock()
	go func() {
		io.Copy(b, c)
		b.Close()
	}()
	io.Copy(c, b)
	c.Close()
	p.drop(c)
	p.drop(b)
}

func (p *partitionProxy) drop(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// SetCut toggles the partition. Cutting severs every established pipe so
// in-flight long polls and keepalive connections fail now, not at their
// own leisure.
func (p *partitionProxy) SetCut(cut bool) {
	p.mu.Lock()
	p.cut = cut
	if cut {
		for c := range p.conns {
			c.Close()
		}
		p.conns = map[net.Conn]struct{}{}
	}
	p.mu.Unlock()
}

func (p *partitionProxy) Close() {
	p.ln.Close()
	p.SetCut(true)
}

func fixedRanges(n int, lo, hi float64) [][2]float64 {
	out := make([][2]float64, n)
	for i := range out {
		out[i] = [2]float64{lo, hi}
	}
	return out
}

func streamConfig(dims int) core.StreamConfig {
	return core.StreamConfig{
		Config:    core.Config{Seed: 7, Trials: 2},
		Dims:      dims,
		RawRanges: fixedRanges(dims, -12, 12),
		Period:    250,
	}
}

type liveNode struct {
	srv *server.Server
	ts  *httptest.Server
	c   *client.Client
}

func startLive(t *testing.T, cfg server.Config) *liveNode {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	srv.Start()
	n := &liveNode{srv: srv, ts: ts, c: client.New(ts.URL)}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Stop(ctx)
	})
	return n
}

// TestPartitionElectionAndZombieFencing is the full failover story on
// real nodes under -race: the primary is partitioned away (alive but
// unreachable), the supervisor detects it and elects the caught-up
// follower under a new epoch, writes resume through the pool client, the
// still-serving zombie rejects a tokened write with the typed stale-epoch
// error, and on heal the supervisor demotes it in place into a follower
// that converges on the new primary's writes.
func TestPartitionElectionAndZombieFencing(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The primary lives behind the proxy: the replica set and supervisor
	// know it ONLY by its proxy address, so cutting the proxy partitions
	// it without killing it.
	primary := startLive(t, server.Config{
		Stream: streamConfig(3),
		NodeID: "node-a",
		WALDir: filepath.Join(dir, "awal"),
	})
	proxy := newPartitionProxy(t, primary.ts.URL)
	f1 := startLive(t, server.Config{
		Stream:     streamConfig(3),
		NodeID:     "node-b",
		FollowURL:  proxy.URL(),
		FollowPoll: 100 * time.Millisecond,
		WALDir:     filepath.Join(dir, "bwal"),
	})
	f2 := startLive(t, server.Config{
		Stream:     streamConfig(3),
		NodeID:     "node-c",
		FollowURL:  proxy.URL(),
		FollowPoll: 100 * time.Millisecond,
		WALDir:     filepath.Join(dir, "cwal"),
	})

	sup, err := failover.New(failover.Config{
		Nodes:        []string{proxy.URL(), f1.ts.URL, f2.ts.URL},
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 500 * time.Millisecond,
		FailAfter:    2,
		RecoverAfter: 1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Seed traffic and let both followers fully catch up, so the later
	// election sees equal horizons and resolves on the NodeID tiebreak.
	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(91))
	rng := xrand.New(92)
	const perBatch = 200
	ingestVia := func(c *client.Client, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			batch, _ := spec.Sample(perBatch, rng)
			if _, err := c.Ingest(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingestVia(client.New(proxy.URL()), 4)
	for _, f := range []*liveNode{f1, f2} {
		if err := f.c.WaitSeen(ctx, 4*perBatch); err != nil {
			t.Fatal(err)
		}
	}

	sup.Round(ctx)
	st := sup.Status()
	if st.Primary != proxy.URL() || st.ClusterEpoch != 1 {
		t.Fatalf("adoption: primary=%q epoch=%d, want %q/1", st.Primary, st.ClusterEpoch, proxy.URL())
	}

	// The partition. The primary keeps running — from its own side it is
	// still an unfenced primary at epoch 1.
	proxy.SetCut(true)
	for i := 0; i < 2; i++ { // failAfter misses
		sup.Round(ctx)
	}
	st = sup.Status()
	if st.Primary != f1.ts.URL {
		t.Fatalf("election picked %q, want node-b (%s) on the NodeID tiebreak", st.Primary, f1.ts.URL)
	}
	if st.ClusterEpoch != 2 || st.Elections != 1 {
		t.Fatalf("post-election epoch=%d elections=%d, want 2/1", st.ClusterEpoch, st.Elections)
	}

	// Writes resume through the pool client with no operator: it rotates
	// off the dead proxy endpoint onto the new primary and learns epoch 2
	// from the ack.
	poolHC := &http.Client{Transport: &http.Transport{
		ResponseHeaderTimeout: time.Second, // a black-holed endpoint fails fast and rotatably
	}}
	pc := client.NewWithHTTPClient(proxy.URL(), poolHC)
	pc.SetEndpoints(proxy.URL(), f1.ts.URL, f2.ts.URL)
	pc.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 12, BaseBackoff: 20 * time.Millisecond})
	pc.SetProducer("part-prod")
	batch, _ := spec.Sample(perBatch, rng)
	ack, err := pc.Ingest(ctx, batch) // producer seq 1
	if err != nil {
		t.Fatalf("pool ingest after election: %v", err)
	}
	if ack.Epoch != 2 {
		t.Fatalf("post-election ack epoch = %d, want 2", ack.Epoch)
	}
	if pc.KnownEpoch() != 2 {
		t.Fatalf("pool client learned epoch %d, want 2", pc.KnownEpoch())
	}

	// The zombie: still alive on its real address, still believes it is
	// the epoch-1 primary. A client carrying the new epoch token gets the
	// typed stale-epoch rejection — the write is refused, not silently
	// accepted into a diverging history.
	zc := client.New(primary.ts.URL)
	zc.SetKnownEpoch(2)
	zc.SetProducer("part-prod")
	zBatch, _ := spec.Sample(perBatch, rng)
	_, err = zc.IngestSeq(ctx, zBatch, 2)
	var stale *client.ErrStaleEpoch
	if !errors.As(err, &stale) {
		t.Fatalf("tokened write to the zombie: err = %v, want ErrStaleEpoch", err)
	}
	if stale.NodeEpoch != 1 || stale.RequestEpoch != 2 {
		t.Fatalf("stale-epoch detail = %+v, want node 1 / request 2", stale)
	}
	if zs := primary.srv.Stats(); zs.Role != "primary" || zs.Epoch != 1 {
		t.Fatalf("zombie drifted before heal: %+v", zs)
	}

	// Heal. The supervisor re-sees the zombie (one hit readmits it with
	// recoverAfter=1), finds an unfenced primary that lost the election
	// with AppliedSeq at or behind the winner's, and demotes it in place.
	proxy.SetCut(false)
	demoted := false
	for i := 0; i < 10 && !demoted; i++ {
		sup.Round(ctx)
		zs := primary.srv.Stats()
		demoted = zs.Role == "follower" && zs.Epoch == 2
	}
	zs := primary.srv.Stats()
	if zs.Role != "follower" || zs.Epoch != 2 || zs.Primary != f1.ts.URL {
		t.Fatalf("healed zombie = role=%q epoch=%d primary=%q, want follower/2/%q",
			zs.Role, zs.Epoch, zs.Primary, f1.ts.URL)
	}
	if got := sup.Status().Primary; got != f1.ts.URL {
		t.Fatalf("supervisor primary flapped to %q after heal", got)
	}

	// The demoted ex-primary now replicates the post-failover writes it
	// missed — including the batch accepted while it was partitioned.
	pclient := client.New(primary.ts.URL)
	if err := pclient.WaitSeen(ctx, 5*perBatch); err != nil {
		t.Fatalf("demoted ex-primary never converged: %v", err)
	}
	pst := primary.srv.Stats()
	if pst.Producers["part-prod"] != 1 {
		t.Fatalf("replicated producer horizon = %d, want 1 (the post-election batch)", pst.Producers["part-prod"])
	}
}
