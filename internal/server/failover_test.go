package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// rawIngest POSTs encoded batch bytes with an optional X-KB2-Epoch token
// and returns the raw response — fencing tests assert on the wire
// contract (status, headers, JSON body), not the client's interpretation.
func rawIngest(t *testing.T, base, epochToken string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if epochToken != "" {
		req.Header.Set("X-KB2-Epoch", epochToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t *testing.T, r io.Reader) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIngestEpochTokenAsymmetry pins the fencing token check's direction:
// a token NEWER than the node's epoch proves the node is a fenced-off
// zombie (412); an older or absent token is fine — the node is current
// and its ack teaches the client the epoch.
func TestIngestEpochTokenAsymmetry(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Epoch:  3,
	})
	defer n.stop(t, ctx)
	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(51))
	batch, _ := spec.Sample(50, xrand.New(52))
	body := server.EncodeBatch(batch)

	// No token: accepted, and the ack carries the node's epoch both as a
	// header and in the JSON body.
	resp := rawIngest(t, n.ts.URL, "", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tokenless ingest → %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KB2-Epoch"); got != "3" {
		t.Fatalf("ack X-KB2-Epoch = %q, want 3", got)
	}
	if m := decodeJSON(t, resp.Body); m["epoch"] != float64(3) {
		t.Fatalf("ack epoch = %v, want 3", m["epoch"])
	}
	resp.Body.Close()

	// Older token: the CLIENT is behind, not the node — accepted.
	resp = rawIngest(t, n.ts.URL, "2", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("older-token ingest → %d, want 202", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Newer token: the node is the stale party — typed 412.
	resp = rawIngest(t, n.ts.URL, "5", body)
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("newer-token ingest → %d, want 412", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KB2-Epoch"); got != "3" {
		t.Fatalf("412 X-KB2-Epoch = %q, want 3", got)
	}
	m := decodeJSON(t, resp.Body)
	resp.Body.Close()
	if m["error"] != "stale epoch" || m["node_epoch"] != float64(3) || m["request_epoch"] != float64(5) {
		t.Fatalf("412 body = %v, want stale epoch node=3 request=5", m)
	}

	// Malformed token: a 400, never a silent accept.
	resp = rawIngest(t, n.ts.URL, "zombie", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed-token ingest → %d, want 400", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The rejects were counted.
	mx, err := n.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := mx["keybin2d_stale_epoch_rejects_total"]; got != 1 {
		t.Fatalf("keybin2d_stale_epoch_rejects_total = %v, want 1", got)
	}
}

// TestPromoteEpochMonotone pins the epoch rules on /promote: an explicit
// epoch at or below the follower's current one is refused with 409, a
// promotion without one mints current+1, and a second promotion of any
// kind answers 409.
func TestPromoteEpochMonotone(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Both nodes share epoch 9: a follower carrying a NEWER epoch than its
	// upstream would (correctly) refuse to tail it — that is the zombie
	// guard, not this test's subject.
	primary := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(dir, "pwal"),
		Epoch:  9,
	})
	defer primary.stop(t, ctx)
	f := startNode(t, server.Config{
		Stream:     testStreamConfig(3),
		FollowURL:  primary.ts.URL,
		FollowPoll: 100 * time.Millisecond,
		WALDir:     filepath.Join(dir, "fwal"),
		Epoch:      9,
	})
	defer f.stop(t, ctx)

	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(61))
	batch, _ := spec.Sample(200, xrand.New(62))
	if _, err := primary.c.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := f.c.WaitSeen(ctx, 200); err != nil {
		t.Fatal(err)
	}

	// Epoch 5 < the follower's 9: refused, and the node stays a follower.
	if _, _, err := f.c.PromoteEpoch(ctx, 5); err == nil {
		t.Fatal("stale-epoch promotion accepted")
	}
	if st := f.srv.Stats(); st.Role != "follower" || st.Epoch != 9 {
		t.Fatalf("after refused promotion: role=%q epoch=%d, want follower/9", st.Role, st.Epoch)
	}

	// No explicit epoch: the node mints current+1.
	seq, epoch, err := f.c.PromoteEpoch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || epoch != 10 {
		t.Fatalf("promotion → seq=%d epoch=%d, want 1/10", seq, epoch)
	}
	if st := f.srv.Stats(); st.Role != "primary" || st.Epoch != 10 {
		t.Fatalf("promoted stats: role=%q epoch=%d, want primary/10", st.Role, st.Epoch)
	}
	if _, _, err := f.c.PromoteEpoch(ctx, 11); err == nil {
		t.Fatal("second promotion accepted")
	}
}

// TestFenceDemotesPrimaryInPlace is the supervisor's zombie path end to
// end on real nodes: after a follower is promoted at a higher epoch, a
// fence naming the new primary turns the old one into a live follower of
// it — tailing new writes, refusing direct ingest with the 421 redirect —
// without a restart. Re-fencing at the same epoch is an idempotent no-op.
func TestFenceDemotesPrimaryInPlace(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	a := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(dir, "awal"),
	})
	defer a.stop(t, ctx)
	b := startNode(t, server.Config{
		Stream:     testStreamConfig(3),
		FollowURL:  a.ts.URL,
		FollowPoll: 100 * time.Millisecond,
		WALDir:     filepath.Join(dir, "bwal"),
	})
	defer b.stop(t, ctx)

	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(71))
	rng := xrand.New(72)
	const perBatch = 200
	for i := 0; i < 3; i++ {
		batch, _ := spec.Sample(perBatch, rng)
		if _, err := a.c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.c.WaitSeen(ctx, 3*perBatch); err != nil {
		t.Fatal(err)
	}

	// The failover: B becomes primary at epoch 2, then A (the ex-primary,
	// still up — a zombie) is fenced behind it.
	if _, _, err := b.c.PromoteEpoch(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.c.Fence(ctx, 2, b.ts.URL); err != nil {
		t.Fatal(err)
	}
	st := a.srv.Stats()
	if st.Role != "follower" || st.Epoch != 2 || st.Fenced || st.Primary != b.ts.URL {
		t.Fatalf("fenced ex-primary stats = role=%q epoch=%d fenced=%v primary=%q, want follower/2/false/%q",
			st.Role, st.Epoch, st.Fenced, st.Primary, b.ts.URL)
	}

	// Idempotency: the supervisor repeats fences freely.
	if err := a.c.Fence(ctx, 2, b.ts.URL); err != nil {
		t.Fatalf("re-fence at the same epoch: %v", err)
	}

	// New writes land on B and replicate INTO the demoted A.
	batch, _ := spec.Sample(perBatch, rng)
	if _, err := b.c.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := a.c.WaitSeen(ctx, 4*perBatch); err != nil {
		t.Fatalf("demoted ex-primary never caught the new primary: %v", err)
	}
	// The tail reads the record at WAL-append time, so the follower can
	// apply it before the primary's own writer has: wait for both.
	if err := b.c.WaitSeen(ctx, 4*perBatch); err != nil {
		t.Fatal(err)
	}
	probeM, _ := spec.Sample(64, xrand.New(73))
	probe := server.EncodeBatch(probeM)
	sameLabels(t, rawLabel(t, b.ts.URL, probe), rawLabel(t, a.ts.URL, probe))

	// Direct writes at the demoted node get the follower redirect naming
	// the new primary.
	resp := rawIngest(t, a.ts.URL, "", probe)
	if resp.StatusCode != http.StatusMisdirectedRequest || resp.Header.Get("X-KB2-Primary") != b.ts.URL {
		t.Fatalf("ingest at demoted node → %d (X-KB2-Primary %q), want 421 → %q",
			resp.StatusCode, resp.Header.Get("X-KB2-Primary"), b.ts.URL)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Fencing a node at an epoch BELOW its current one is the stale call.
	if err := a.c.Fence(ctx, 1, b.ts.URL); err == nil {
		t.Fatal("fence at a stale epoch accepted")
	}
}

// TestWALTailEpochFencing: a follower that has seen a newer epoch must
// not be fed from a stale node's log — its tail request carries the epoch
// and gets the typed 412 — while a current follower's tail response
// carries the node's epoch so fencing news rides replication.
func TestWALTailEpochFencing(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Epoch:  3,
	})
	defer n.stop(t, ctx)

	resp, err := http.Get(n.ts.URL + "/wal?from=0&epoch=5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("tail with newer epoch → %d, want 412", resp.StatusCode)
	}
	m := decodeJSON(t, resp.Body)
	resp.Body.Close()
	if m["node_epoch"] != float64(3) || m["request_epoch"] != float64(5) {
		t.Fatalf("tail 412 body = %v, want node=3 request=5", m)
	}

	resp, err = http.Get(n.ts.URL + "/wal?from=0&epoch=3&max_bytes=1024")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail at current epoch → %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KB2-Epoch"); got != "3" {
		t.Fatalf("tail X-KB2-Epoch = %q, want 3", got)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// blockSyncFS wraps an FS so one armed file Sync parks on a gate — the
// window where a write is appended but not yet durable, held open long
// enough for a fence to land in the middle of it.
type blockSyncFS struct {
	server.FS
	mu      sync.Mutex
	gate    chan struct{}
	armed   bool
	blocked atomic.Int64
}

func (b *blockSyncFS) arm() chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate = make(chan struct{})
	b.armed = true
	return b.gate
}

func (b *blockSyncFS) OpenFile(name string, flag int, perm os.FileMode) (server.File, error) {
	f, err := b.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &blockSyncFile{File: f, fs: b}, nil
}

type blockSyncFile struct {
	server.File
	fs *blockSyncFS
}

func (f *blockSyncFile) Sync() error {
	f.fs.mu.Lock()
	var gate chan struct{}
	if f.fs.armed {
		gate, f.fs.armed = f.fs.gate, false
	}
	f.fs.mu.Unlock()
	if gate != nil {
		f.fs.blocked.Add(1)
		<-gate
	}
	return f.File.Sync()
}

// TestFenceDuringDurabilityWait closes the late-ack hole: a batch already
// appended to the WAL and parked in WaitDurable when the fence lands must
// come back 412, not 202 — at that point no client may treat the write as
// accepted by the old primary.
func TestFenceDuringDurabilityWait(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bfs := &blockSyncFS{FS: server.OSFS}
	n := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Fsync:  "always",
		FS:     bfs,
	})
	defer n.stop(t, ctx)

	spec := synth.AutoMixture(3, 3, 6, 1, xrand.New(81))
	batch, _ := spec.Sample(50, xrand.New(82))
	body := server.EncodeBatch(batch)

	// One clean ingest first: WAL bootstrap syncs are out of the way.
	resp := rawIngest(t, n.ts.URL, "", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("warmup ingest → %d", resp.StatusCode)
	}

	gate := bfs.arm()
	type result struct {
		status int
		body   map[string]any
	}
	resC := make(chan result, 1)
	go func() {
		resp := rawIngest(t, n.ts.URL, "", body)
		defer resp.Body.Close()
		resC <- result{resp.StatusCode, decodeJSON(t, resp.Body)}
	}()

	// Wait until the ack path is provably parked inside the durability
	// wait, then fence the node at a newer epoch (no rejoin target: pure
	// fencing, the demotion would itself wait for durability).
	deadline := time.Now().Add(10 * time.Second)
	for bfs.blocked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ingest never blocked on the armed fsync")
		}
		time.Sleep(time.Millisecond)
	}
	if err := n.c.Fence(ctx, 2, ""); err != nil {
		t.Fatal(err)
	}
	close(gate)

	res := <-resC
	if res.status != http.StatusPreconditionFailed {
		t.Fatalf("in-flight ack after fence → %d (%v), want 412", res.status, res.body)
	}
	if res.body["node_epoch"] != float64(2) {
		t.Fatalf("late-ack 412 body = %v, want node_epoch 2", res.body)
	}
	st := n.srv.Stats()
	if st.Role != "primary" || !st.Fenced || st.Epoch != 2 {
		t.Fatalf("fenced primary stats = role=%q fenced=%v epoch=%d, want primary/true/2", st.Role, st.Fenced, st.Epoch)
	}

	// And it STAYS fenced: later writes are refused at the door.
	resp = rawIngest(t, n.ts.URL, "", body)
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("post-fence ingest → %d, want 412", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestFenceRejectedByOwnEpoch: fencing an unfenced primary AT its own
// epoch must be refused — only a strictly newer epoch outranks a serving
// primary (the supervisor always fences losers at the winner's epoch,
// which the loser has not seen).
func TestFenceOwnEpochRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := startNode(t, server.Config{
		Stream: testStreamConfig(3),
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Epoch:  3,
	})
	defer n.stop(t, ctx)
	if err := n.c.Fence(ctx, 3, ""); err == nil {
		t.Fatal("fence at the primary's own epoch accepted")
	}
	if st := n.srv.Stats(); st.Fenced {
		t.Fatal("refused fence still fenced the node")
	}
	_ = client.ErrStaleEpoch{} // typed-error contract lives in the client package
}

// TestDemotedPrimaryCountsTailReconnects: a node that started as a primary
// tails like any follower once a fence demotes it, and its failed tail
// rounds count in /metrics as they do in /stats.
func TestDemotedPrimaryCountsTailReconnects(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	a := startNode(t, server.Config{Stream: testStreamConfig(3), WALDir: filepath.Join(t.TempDir(), "wal")})
	defer a.stop(t, ctx)
	if err := a.c.Fence(ctx, 2, down.URL); err != nil {
		t.Fatal(err)
	}
	for a.srv.Stats().TailReconnects == 0 {
		if ctx.Err() != nil {
			t.Fatal("the demoted primary never retried its tail")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mf, err := a.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := mf["keybin2d_replica_tail_reconnects_total"]; got < 1 {
		t.Fatalf("keybin2d_replica_tail_reconnects_total = %v on a demoted primary, want >= 1", got)
	}
}

// TestDemotedPrimaryExportsReplicaGauges holds a primary that a fence
// demotes into a follower to the replica gauges a node born a follower
// exports: its /stats reports a replica lag, so its /metrics must too.
func TestDemotedPrimaryExportsReplicaGauges(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	a := startNode(t, server.Config{Stream: testStreamConfig(3), WALDir: filepath.Join(t.TempDir(), "wal")})
	defer a.stop(t, ctx)
	if err := a.c.Fence(ctx, 2, down.URL); err != nil {
		t.Fatal(err)
	}
	for a.srv.Stats().Role != "follower" {
		if ctx.Err() != nil {
			t.Fatal("the fenced primary never became a follower")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mf, err := a.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keybin2d_replica_applied_seq", "keybin2d_replica_primary_last_seq", "keybin2d_replica_lag_seconds"} {
		if _, ok := mf[name]; !ok {
			t.Errorf("a demoted primary's /metrics has no %s", name)
		}
	}
}
