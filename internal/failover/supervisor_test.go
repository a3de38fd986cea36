package failover

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"keybin2/internal/server"
)

// fakeNode is a scriptable keybin2d stand-in: it serves /stats from a
// mutable snapshot and applies /promote, /fence, and /epoch with the same
// visible semantics as the real data plane, recording each control call.
type fakeNode struct {
	mu    sync.Mutex
	st    server.Stats
	down  bool // probe failures: /stats (and everything else) answers 500
	calls []string
	srv   *httptest.Server
}

func newFakeNode(t *testing.T, role, nodeID string, epoch int64, applied uint64) *fakeNode {
	t.Helper()
	f := &fakeNode{st: server.Stats{Role: role, NodeID: nodeID, Epoch: epoch, AppliedSeq: applied}}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.down {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(f.st)
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		epoch, _ := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
		f.calls = append(f.calls, "promote:"+r.URL.Query().Get("epoch"))
		if f.down {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		if f.st.Role != "follower" {
			http.Error(w, "already a primary", http.StatusConflict)
			return
		}
		if epoch <= f.st.Epoch {
			http.Error(w, "stale epoch", http.StatusConflict)
			return
		}
		f.st.Role, f.st.Epoch, f.st.Fenced = "primary", epoch, false
		json.NewEncoder(w).Encode(map[string]any{
			"promoted": true, "applied_seq": f.st.AppliedSeq, "epoch": f.st.Epoch,
		})
	})
	mux.HandleFunc("/fence", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		epoch, _ := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
		primary := r.URL.Query().Get("primary")
		f.calls = append(f.calls, "fence:"+r.URL.Query().Get("epoch")+":"+primary)
		if f.down {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		if epoch < f.st.Epoch {
			http.Error(w, "stale epoch", http.StatusPreconditionFailed)
			return
		}
		if f.st.Role == "primary" && !f.st.Fenced && epoch == f.st.Epoch {
			// Mirrors the real handleFence: the unfenced primary is its own
			// epoch's legitimate owner; fencing it takes a newer epoch.
			http.Error(w, "node is the primary at this epoch", http.StatusConflict)
			return
		}
		f.st.Epoch = epoch
		if f.st.Role == "primary" {
			if primary != "" {
				f.st.Role, f.st.Primary, f.st.Fenced = "follower", primary, false
			} else {
				f.st.Fenced = true
			}
		} else if primary != "" {
			f.st.Primary = primary
		}
		json.NewEncoder(w).Encode(map[string]any{"role": f.st.Role, "epoch": f.st.Epoch})
	})
	mux.HandleFunc("/epoch", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		epoch, _ := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
		f.calls = append(f.calls, "epoch:"+r.URL.Query().Get("epoch"))
		if f.down {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		if f.st.Role != "primary" {
			http.Error(w, "not a primary", http.StatusConflict)
			return
		}
		if epoch > f.st.Epoch {
			f.st.Epoch = epoch
		}
		json.NewEncoder(w).Encode(map[string]any{"role": f.st.Role, "epoch": f.st.Epoch})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeNode) setDown(v bool) {
	f.mu.Lock()
	f.down = v
	f.mu.Unlock()
}

func (f *fakeNode) snapshot() server.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *fakeNode) callLog() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

// newTestSupervisor builds a supervisor over the fakes with probe timing
// tightened so a full Round costs milliseconds, not the prod defaults.
func newTestSupervisor(t *testing.T, failAfter int, nodes ...*fakeNode) *Supervisor {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.srv.URL
	}
	sup, err := New(Config{
		Nodes:        urls,
		ProbeEvery:   1, // jitter delays scale off this: effectively zero
		ProbeTimeout: 2e9,
		FailAfter:    failAfter,
		RecoverAfter: 1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sup
}

func TestSupervisorAdoptsUnmanagedGroup(t *testing.T) {
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	f1 := newFakeNode(t, "follower", "node-b", 0, 100)
	f2 := newFakeNode(t, "follower", "node-c", 0, 90)
	sup := newTestSupervisor(t, 3, primary, f1, f2)

	sup.Round(context.Background())

	st := sup.Status()
	if st.Primary != primary.srv.URL {
		t.Fatalf("adopted primary = %q, want %q", st.Primary, primary.srv.URL)
	}
	if st.ClusterEpoch != 1 {
		t.Fatalf("cluster epoch = %d, want 1 (minted on first management)", st.ClusterEpoch)
	}
	if got := primary.snapshot().Epoch; got != 1 {
		t.Fatalf("primary epoch = %d, want 1 adopted via /epoch", got)
	}
	// Followers were at epoch 0: both must be fenced up to epoch 1 and
	// pointed at the adopted primary.
	for _, f := range []*fakeNode{f1, f2} {
		s := f.snapshot()
		if s.Epoch != 1 || s.Primary != primary.srv.URL {
			t.Fatalf("follower %s: epoch=%d primary=%q, want 1/%q",
				s.NodeID, s.Epoch, s.Primary, primary.srv.URL)
		}
	}
}

func TestSupervisorRelearnsEpochFromFleet(t *testing.T) {
	// A restarted supervisor has no memory: the epoch must come back from
	// member stats, not restart at 1.
	primary := newFakeNode(t, "primary", "node-a", 7, 500)
	f1 := newFakeNode(t, "follower", "node-b", 7, 500)
	sup := newTestSupervisor(t, 3, primary, f1)

	sup.Round(context.Background())

	if got := sup.Status().ClusterEpoch; got != 7 {
		t.Fatalf("cluster epoch = %d, want 7 re-learned from stats", got)
	}
	for _, c := range primary.callLog() {
		if c == "epoch:1" {
			t.Fatal("supervisor re-minted epoch 1 over a managed group")
		}
	}
}

func TestSupervisorElectsMostCaughtUpFollower(t *testing.T) {
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	behind := newFakeNode(t, "follower", "node-b", 0, 60)
	ahead := newFakeNode(t, "follower", "node-c", 0, 95)
	sup := newTestSupervisor(t, 2, primary, behind, ahead)
	ctx := context.Background()

	sup.Round(ctx) // adopt at epoch 1
	primary.setDown(true)
	sup.Round(ctx) // miss 1 of 2
	if got := sup.Status().Primary; got != primary.srv.URL {
		t.Fatalf("one miss with failAfter=2 must not demote; primary = %q", got)
	}
	sup.Round(ctx) // miss 2: demote + elect

	st := sup.Status()
	if st.Primary != ahead.srv.URL {
		t.Fatalf("elected %q, want most-caught-up %q", st.Primary, ahead.srv.URL)
	}
	if st.ClusterEpoch != 2 {
		t.Fatalf("cluster epoch after election = %d, want 2", st.ClusterEpoch)
	}
	if st.Elections != 1 {
		t.Fatalf("elections = %d, want 1", st.Elections)
	}
	if s := ahead.snapshot(); s.Role != "primary" || s.Epoch != 2 {
		t.Fatalf("winner state = %+v, want primary at epoch 2", s)
	}
	// The election must never pick the follower behind the other's durable
	// horizon — it must not even have been asked.
	for _, c := range behind.callLog() {
		if c == "promote:2" {
			t.Fatal("behind follower received a promote call")
		}
	}
	// The losing follower is re-pointed at the winner under the new epoch.
	if s := behind.snapshot(); s.Epoch != 2 || s.Primary != ahead.srv.URL {
		t.Fatalf("loser state = %+v, want epoch 2 tailing %q", s, ahead.srv.URL)
	}
}

func TestSupervisorElectionNodeIDTiebreak(t *testing.T) {
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	fb := newFakeNode(t, "follower", "node-b", 0, 80)
	fc := newFakeNode(t, "follower", "node-c", 0, 80)
	sup := newTestSupervisor(t, 1, primary, fb, fc)
	ctx := context.Background()

	sup.Round(ctx)
	primary.setDown(true)
	sup.Round(ctx)

	if got := sup.Status().Primary; got != fb.srv.URL {
		t.Fatalf("tied election picked %q, want lowest node id %q", got, fb.srv.URL)
	}
}

func TestSupervisorFencesAndDemotesZombie(t *testing.T) {
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	follower := newFakeNode(t, "follower", "node-b", 0, 100)
	sup := newTestSupervisor(t, 1, primary, follower)
	ctx := context.Background()

	sup.Round(ctx) // adopt, epoch 1
	primary.setDown(true)
	sup.Round(ctx) // elect follower at epoch 2

	// Revive the ex-primary exactly as a restart leaves it: an unfenced
	// primary at epoch 0, its applied horizon at or behind the winner's.
	primary.mu.Lock()
	primary.down = false
	primary.st = server.Stats{Role: "primary", NodeID: "node-a", Epoch: 0, AppliedSeq: 100}
	primary.mu.Unlock()

	sup.Round(ctx)

	s := primary.snapshot()
	if s.Role != "follower" || s.Epoch != 2 || s.Primary != follower.srv.URL {
		t.Fatalf("zombie state = %+v, want follower at epoch 2 tailing %q", s, follower.srv.URL)
	}
	if got := sup.Status().Primary; got != follower.srv.URL {
		t.Fatalf("primary flapped back to the zombie: %q", got)
	}
}

func TestSupervisorDivergedZombieFencedWithoutDemotion(t *testing.T) {
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	follower := newFakeNode(t, "follower", "node-b", 0, 90)
	sup := newTestSupervisor(t, 1, primary, follower)
	ctx := context.Background()

	sup.Round(ctx) // adopt, epoch 1
	primary.setDown(true)
	sup.Round(ctx) // elect the follower (applied 90) at epoch 2

	// The zombie comes back having applied PAST the winner's horizon —
	// acked writes the new primary never replicated. Demoting it would
	// discard them; it must only be fenced.
	primary.mu.Lock()
	primary.down = false
	primary.st = server.Stats{Role: "primary", NodeID: "node-a", Epoch: 1, AppliedSeq: 100}
	primary.mu.Unlock()

	sup.Round(ctx)

	s := primary.snapshot()
	if s.Role != "primary" || !s.Fenced {
		t.Fatalf("diverged zombie state = %+v, want fenced primary (no demotion)", s)
	}
	for _, c := range primary.callLog() {
		if c == "fence:2:"+follower.srv.URL {
			t.Fatal("diverged zombie was given a rejoin target")
		}
	}
}

func TestSupervisorElectsWhenStartedOverDeadPrimary(t *testing.T) {
	// A supervisor started (or restarted) while the primary is already
	// dead has nothing to adopt — it must fall through to election, not
	// wait forever for a primary that will never answer.
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	follower := newFakeNode(t, "follower", "node-b", 0, 90)
	primary.setDown(true)
	sup := newTestSupervisor(t, 1, primary, follower)

	sup.Round(context.Background())

	st := sup.Status()
	if st.Primary != follower.srv.URL {
		t.Fatalf("primary = %q, want elected follower %q", st.Primary, follower.srv.URL)
	}
	if st.Elections != 1 {
		t.Fatalf("elections = %d, want 1", st.Elections)
	}
	if s := follower.snapshot(); s.Role != "primary" || s.Epoch != 1 {
		t.Fatalf("winner state = %+v, want primary at epoch 1", s)
	}
}

func TestSupervisorElectsPastOperatorFencedPrimary(t *testing.T) {
	// An operator /fence?epoch=N with no primary= leaves the node role
	// "primary" but fenced — no write path. The supervisor must elect a
	// replacement rather than treat the fenced node as a healthy primary.
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	follower := newFakeNode(t, "follower", "node-b", 0, 100)
	sup := newTestSupervisor(t, 1, primary, follower)
	ctx := context.Background()

	sup.Round(ctx) // adopt at epoch 1
	primary.mu.Lock()
	primary.st.Fenced = true
	primary.mu.Unlock()
	sup.Round(ctx)

	st := sup.Status()
	if st.Primary != follower.srv.URL {
		t.Fatalf("primary = %q, want elected follower %q", st.Primary, follower.srv.URL)
	}
	if st.ClusterEpoch != 2 {
		t.Fatalf("cluster epoch = %d, want 2 minted by the election", st.ClusterEpoch)
	}
	if s := follower.snapshot(); s.Role != "primary" || s.Epoch != 2 {
		t.Fatalf("winner state = %+v, want primary at epoch 2", s)
	}
}

func TestSupervisorFencesOwnEpochZombie(t *testing.T) {
	// Dual promotes (a second supervisor, or two operators) leave two
	// unfenced primaries at the SAME epoch. Fencing the loser at that
	// epoch is refused 409 — the supervisor must mint the next epoch on
	// the elected primary and fence the zombie at it, not retry the 409
	// forever while split-brain persists.
	a := newFakeNode(t, "primary", "node-a", 2, 100)
	b := newFakeNode(t, "primary", "node-b", 2, 90)
	sup := newTestSupervisor(t, 1, a, b)

	sup.Round(context.Background())

	s := b.snapshot()
	if s.Role != "follower" || s.Epoch != 3 || s.Primary != a.srv.URL {
		t.Fatalf("zombie state = %+v, want follower at epoch 3 tailing %q", s, a.srv.URL)
	}
	if got := a.snapshot().Epoch; got != 3 {
		t.Fatalf("elected primary epoch = %d, want 3 minted past the own-epoch zombie", got)
	}
	if got := sup.Status().ClusterEpoch; got != 3 {
		t.Fatalf("cluster epoch = %d, want 3", got)
	}
}

func TestSupervisorNoElectionWithoutLiveFollowers(t *testing.T) {
	primary := newFakeNode(t, "primary", "node-a", 0, 100)
	follower := newFakeNode(t, "follower", "node-b", 0, 100)
	sup := newTestSupervisor(t, 1, primary, follower)
	ctx := context.Background()

	sup.Round(ctx)
	primary.setDown(true)
	follower.setDown(true)
	sup.Round(ctx)
	sup.Round(ctx)

	st := sup.Status()
	if st.Elections != 0 {
		t.Fatalf("elections = %d with the whole fleet down, want 0", st.Elections)
	}
	if st.Primary != primary.srv.URL {
		t.Fatalf("recorded primary churned to %q with nothing electable", st.Primary)
	}
	for _, c := range follower.callLog() {
		if c == "promote:2" {
			t.Fatal("a down follower received a promote call")
		}
	}
}

func TestSupervisorReadoptsRestartedPrimary(t *testing.T) {
	// The primary restarts fast enough that no election fires (epochs are
	// not persisted, so it rejoins at epoch 0): the supervisor must raise
	// it back to the fleet epoch rather than leave client tokens fencing it.
	primary := newFakeNode(t, "primary", "node-a", 5, 100)
	follower := newFakeNode(t, "follower", "node-b", 5, 100)
	sup := newTestSupervisor(t, 3, primary, follower)
	ctx := context.Background()

	sup.Round(ctx)
	primary.mu.Lock()
	primary.st.Epoch = 0 // restart wiped the in-memory epoch
	primary.mu.Unlock()
	sup.Round(ctx)

	if got := primary.snapshot().Epoch; got != 5 {
		t.Fatalf("restarted primary epoch = %d, want 5 re-adopted", got)
	}
	if got := sup.Status().ClusterEpoch; got != 5 {
		t.Fatalf("cluster epoch = %d, want 5", got)
	}
}

func TestSupervisorStatusAndHandler(t *testing.T) {
	primary := newFakeNode(t, "primary", "node-a", 0, 10)
	follower := newFakeNode(t, "follower", "node-b", 0, 10)
	sup := newTestSupervisor(t, 1, primary, follower)
	sup.Round(context.Background())

	ctl := httptest.NewServer(sup.Handler())
	defer ctl.Close()
	resp, err := http.Get(ctl.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.Primary != primary.srv.URL || len(st.Nodes) != 2 {
		t.Fatalf("status = %+v, want primary %q and 2 nodes", st, primary.srv.URL)
	}
	for _, n := range st.Nodes {
		if !n.Up || n.Suspicion != 0 {
			t.Fatalf("node %s: up=%v suspicion=%v, want up/0", n.URL, n.Up, n.Suspicion)
		}
	}
	hz, err := http.Get(ctl.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v %v", err, hz)
	}
	hz.Body.Close()
	mt, err := http.Get(ctl.URL + "/metrics")
	if err != nil || mt.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %v %v", err, mt)
	}
	mt.Body.Close()
}

// TestSupervisorRefusesMalformedNodeURL: a node URL no probe could be
// built for is a config error at New, not a node reported down forever.
func TestSupervisorRefusesMalformedNodeURL(t *testing.T) {
	for _, u := range []string{"http://[::1", "127.0.0.1:7420", "ftp://h:7420", "http://", "/node"} {
		if _, err := New(Config{Nodes: []string{"http://127.0.0.1:1", u}}); err == nil {
			t.Errorf("New accepted node URL %q", u)
		}
	}
}
