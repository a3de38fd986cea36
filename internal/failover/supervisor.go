package failover

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/daemon"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

// Supervisor turns a fixed set of keybin2d nodes into a self-healing
// replica set. Each probe round it polls every node's /stats (one Prober
// round), feeds the results into per-node failure detectors, and
// converges the fleet toward one fenced epoch:
//
//   - Unmanaged group: adopt the live primary and mint epoch 1 (or
//     re-learn the fleet's highest epoch — the epoch lives in the data
//     plane, so a restarted supervisor recovers it from member stats).
//   - Dead primary: elect the most-caught-up live follower (max
//     AppliedSeq, lowest NodeID tiebreak), promote it at epoch+1, and
//     fence every other node at that epoch pointing at the winner.
//   - Revived zombie: a live unfenced "primary" that is not the elected
//     one is fenced and demoted in place — unless it applied writes past
//     the elected primary's horizon, in which case it is fenced WITHOUT
//     a rejoin target and left for the operator (demoting it would
//     silently discard diverged acknowledged writes).
//   - Drifted follower: re-fenced toward the current primary/epoch.
//
// One supervisor per replica set: this is a control plane, not a
// consensus group — it serializes its own decisions on one goroutine,
// and the data plane's fencing epochs make its actions safe to repeat
// or resume after a supervisor restart. Running two supervisors against
// one fleet is an operator error the epochs mitigate but do not excuse.
type Supervisor struct {
	cfg    Config
	prober *Prober // only touched on the Round goroutine
	tracer *obs.Tracer

	mu           sync.Mutex
	members      []*member
	clusterEpoch int64
	primaryURL   string
	elections    int64
	fenceOps     int64

	tel  *supTelemetry
	done chan struct{}
	wg   sync.WaitGroup
}

// Config tunes a Supervisor.
type Config struct {
	// Nodes are the replica set's base URLs (primary and followers alike
	// — roles are discovered, not configured). Fixed membership.
	Nodes []string
	// ProbeEvery is the probe-round cadence (default 500ms).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each node probe (default 2s); control calls
	// (promote/fence/epoch) get 5x — a promotion may replay WAL records.
	ProbeTimeout time.Duration
	// FailAfter demotes a node after this many consecutive missed probes
	// (default 3); RecoverAfter readmits it after this many consecutive
	// successes (default 2) — the flap hysteresis.
	FailAfter    int
	RecoverAfter int
	// Logf receives decision log lines (elections, fences, verdicts).
	Logf func(format string, args ...any)
	// Tracer records one trace per probe-and-converge round (probe spans,
	// election/fence outcomes) and backs GET /trace (default: fresh,
	// capacity 128 — ~64s of history at the default cadence).
	Tracer *obs.Tracer
	// RunID identifies this supervisor incarnation (default: minted).
	RunID string
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 2
	}
	c.RunID, c.Tracer = daemon.Identity(c.RunID, c.Tracer, 128)
	return c
}

// member is one supervised node: its address, failure detector, and the
// last /stats snapshot a successful probe returned.
type member struct {
	url   string
	cl    *client.Client
	det   *Detector
	seen  bool // at least one successful probe ever
	stats server.Stats
}

// New builds a Supervisor over the given nodes. Call Start for the probe
// loop, or drive Round directly (tests).
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("failover: no nodes to supervise")
	}
	s := &Supervisor{
		cfg:    cfg,
		prober: NewProber(cfg.ProbeEvery),
		tracer: cfg.Tracer,
		done:   make(chan struct{}),
	}
	seenURL := map[string]bool{}
	for _, n := range cfg.Nodes {
		u, err := daemon.BaseURL(n)
		if err != nil {
			return nil, fmt.Errorf("failover: node: %w", err)
		}
		if seenURL[u] {
			return nil, fmt.Errorf("failover: duplicate node url %q", n)
		}
		seenURL[u] = true
		s.members = append(s.members, &member{
			url: u,
			cl:  client.New(u),
			det: NewDetector(cfg.FailAfter, cfg.RecoverAfter),
		})
	}
	s.tel = newSupTelemetry(s)
	return s, nil
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start launches the probe loop. Pair with Stop.
func (s *Supervisor) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.ProbeEvery)
		defer t.Stop()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() { <-s.done; cancel() }()
		for {
			s.Round(ctx)
			select {
			case <-t.C:
			case <-s.done:
				return
			}
		}
	}()
}

// Stop halts the probe loop and waits for the in-flight round.
func (s *Supervisor) Stop() {
	close(s.done)
	s.wg.Wait()
}

// Round runs one probe-and-converge round: a Prober round of /stats
// probes, detector updates, then adoption/election/fencing as the
// fleet's state demands. Exported so tests (and the chaos harness) can
// drive the control plane deterministically without the wall-clock loop.
func (s *Supervisor) Round(ctx context.Context) {
	// One trace per round: a probe span per node, a converge span, and
	// outcome tags (primary, epoch, elections/fences this round) — the
	// control plane's decision record, scrapeable at GET /trace.
	tr := s.tracer.Start("failover_round", obs.KV("nodes", len(s.members)))
	defer tr.Finish()
	type probe struct {
		st  server.Stats
		err error
	}
	results := make([]probe, len(s.members))
	s.prober.Round(ctx, len(s.members), func(ctx context.Context, i int) {
		m := s.members[i]
		sp := tr.Span("probe", obs.KV("node", m.url))
		pctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
		defer cancel()
		results[i].st, results[i].err = m.cl.Stats(pctx)
		sp.End(obs.KV("ok", results[i].err == nil))
	})
	if ctx.Err() != nil {
		tr.AddAttrs(obs.KV("outcome", "aborted"))
		return // shutdown mid-round: stale misses must not demote anyone
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	up := 0
	for i, m := range s.members {
		ok := results[i].err == nil
		if ok {
			m.stats = results[i].st
			m.seen = true
			if m.stats.Epoch > s.clusterEpoch {
				s.clusterEpoch = m.stats.Epoch
			}
		}
		if _, changed := m.det.Observe(ok); changed {
			if m.det.Up() {
				s.logf("failover: %s is back up", m.url)
			} else {
				s.logf("failover: %s is down (%v)", m.url, results[i].err)
			}
		}
		if m.det.Up() {
			up++
		}
	}
	e0, f0 := s.elections, s.fenceOps
	sp := tr.Span("converge")
	s.convergeLocked(ctx)
	sp.End(obs.KV("elections", s.elections-e0), obs.KV("fences", s.fenceOps-f0))
	tr.AddAttrs(obs.KV("up", up), obs.KV("primary", s.primaryURL),
		obs.KV("epoch", s.clusterEpoch),
		obs.KV("elections", s.elections-e0), obs.KV("fences", s.fenceOps-f0))
	s.tel.rounds.Inc()
}

// ctrlCtx bounds a control call (promote/fence/epoch): looser than a
// probe because a promotion may replay WAL records before answering.
func (s *Supervisor) ctrlCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, 5*s.cfg.ProbeTimeout)
}

func (s *Supervisor) memberByURL(url string) *member {
	for _, m := range s.members {
		if m.url == url {
			return m
		}
	}
	return nil
}

// convergeLocked drives the fleet toward one live primary at one epoch.
// Every action is idempotent and epoch-guarded, so a half-applied round
// (crash, timeout) is simply finished by the next one.
func (s *Supervisor) convergeLocked(ctx context.Context) {
	cur := s.memberByURL(s.primaryURL)
	if cur == nil {
		cur = s.adoptLocked(ctx)
		if cur == nil {
			// No live unfenced primary anywhere in the fleet: this
			// supervisor started (or restarted) over an already-dead or
			// operator-fenced primary. Adoption alone would wedge here
			// forever — elect from the live followers instead (electLocked
			// handles the nothing-probed and no-candidates cases).
			cur = s.electLocked(ctx)
		}
	} else if !cur.det.Up() || (cur.seen && (cur.stats.Role != "primary" || cur.stats.Fenced)) {
		// The recorded primary is dead, demoted itself out from under us,
		// or was fenced off the write path without a rejoin target (an
		// operator /fence with no primary=): elect a replacement.
		if won := s.electLocked(ctx); won != nil {
			cur = won
		}
	}
	if cur == nil || !cur.det.Up() || !cur.seen || cur.stats.Role != "primary" || cur.stats.Fenced {
		return // nothing electable yet; the next round retries
	}
	cctx, cancel := s.ctrlCtx(ctx)
	defer cancel()
	if cur.stats.Role == "primary" && cur.stats.Epoch < s.clusterEpoch {
		// A restarted primary rejoins at epoch 0 (epochs are not
		// persisted): re-adopt it at the fleet's epoch so client tokens
		// keep working against it.
		if err := cur.cl.AdoptEpoch(cctx, s.clusterEpoch); err != nil {
			s.logf("failover: re-adopt %s at epoch %d: %v", cur.url, s.clusterEpoch, err)
		} else {
			cur.stats.Epoch = s.clusterEpoch
		}
	}
	for _, m := range s.members {
		if m == cur || !m.det.Up() || !m.seen {
			continue
		}
		switch {
		case m.stats.Role == "primary" && !m.stats.Fenced:
			// A live unfenced primary that is not the elected one: a
			// zombie back from a partition or restart.
			if m.stats.AppliedSeq <= cur.stats.AppliedSeq {
				if err := s.fenceLocked(cctx, cur, m, cur.url); err != nil {
					s.logf("failover: fence zombie %s: %v", m.url, err)
				} else {
					s.fenceOps++
					s.tel.fences.Inc()
					m.stats.Role, m.stats.Epoch = "follower", s.clusterEpoch
					s.logf("failover: zombie %s fenced and demoted behind %s (epoch %d)",
						m.url, cur.url, s.clusterEpoch)
				}
			} else {
				// The zombie applied writes past the elected primary's
				// horizon — demoting would silently discard them. Fence it
				// off the write path and leave the divergence to the
				// operator.
				if err := s.fenceLocked(cctx, cur, m, ""); err != nil {
					s.logf("failover: fence diverged zombie %s: %v", m.url, err)
				} else {
					s.fenceOps++
					s.tel.fences.Inc()
					m.stats.Fenced = true
					m.stats.Epoch = s.clusterEpoch
					s.logf("failover: zombie %s DIVERGED (applied %d > primary %d): fenced, operator must reconcile",
						m.url, m.stats.AppliedSeq, cur.stats.AppliedSeq)
				}
			}
		case m.stats.Role == "follower" &&
			(m.stats.Epoch < s.clusterEpoch || strings.TrimRight(m.stats.Primary, "/") != cur.url):
			// Behind on the epoch or tailing the wrong node: re-point.
			if err := m.cl.Fence(cctx, s.clusterEpoch, cur.url); err != nil {
				s.logf("failover: re-point %s at %s: %v", m.url, cur.url, err)
			} else {
				s.fenceOps++
				s.tel.fences.Inc()
				m.stats.Epoch, m.stats.Primary = s.clusterEpoch, cur.url
			}
		}
	}
}

// fenceLocked fences m at the cluster epoch with the given rejoin
// target, handling the own-epoch refusal: an unfenced primary answers
// 409 to a fence at its own epoch (it is that epoch's legitimate
// owner), which a zombie can hold when it was promoted independently —
// dual manual promotes, or a second supervisor. Retrying the same fence
// would 409 forever while split-brain persists, so mint the next epoch
// through the elected primary and fence the zombie at that instead.
func (s *Supervisor) fenceLocked(ctx context.Context, cur, m *member, rejoin string) error {
	err := m.cl.Fence(ctx, s.clusterEpoch, rejoin)
	var se *client.StatusError
	if err == nil || !errors.As(err, &se) || se.Code != http.StatusConflict {
		return err
	}
	next := s.clusterEpoch + 1
	if aerr := cur.cl.AdoptEpoch(ctx, next); aerr != nil {
		return fmt.Errorf("mint epoch %d on %s: %v (fence refused: %w)", next, cur.url, aerr, err)
	}
	s.clusterEpoch = next
	cur.stats.Epoch = next
	s.logf("failover: zombie %s owns epoch %d; minted %d on %s to outrank it",
		m.url, next-1, next, cur.url)
	return m.cl.Fence(ctx, next, rejoin)
}

// adoptLocked discovers the primary of a group this supervisor has no
// record of — first start, or a restart (the epoch was re-learned from
// member stats in the probe phase). Prefers the live unfenced primary
// with the highest epoch, then the most applied, then the lowest NodeID.
// An unmanaged group (epoch 0) gets epoch 1 minted. Returns the adopted
// member, or nil when no live primary exists (election may follow).
func (s *Supervisor) adoptLocked(ctx context.Context) *member {
	var best *member
	for _, m := range s.members {
		if !m.det.Up() || !m.seen || m.stats.Role != "primary" || m.stats.Fenced {
			continue
		}
		if best == nil ||
			m.stats.Epoch > best.stats.Epoch ||
			(m.stats.Epoch == best.stats.Epoch && m.stats.AppliedSeq > best.stats.AppliedSeq) ||
			(m.stats.Epoch == best.stats.Epoch && m.stats.AppliedSeq == best.stats.AppliedSeq &&
				m.stats.NodeID < best.stats.NodeID) {
			best = m
		}
	}
	if best == nil {
		return nil
	}
	if s.clusterEpoch == 0 {
		s.clusterEpoch = 1 // first management of an unmanaged group
	}
	if best.stats.Epoch < s.clusterEpoch {
		cctx, cancel := s.ctrlCtx(ctx)
		defer cancel()
		if err := best.cl.AdoptEpoch(cctx, s.clusterEpoch); err != nil {
			s.logf("failover: adopt %s at epoch %d: %v", best.url, s.clusterEpoch, err)
			if s.clusterEpoch == 1 {
				s.clusterEpoch = 0 // minting failed; retry next round
			}
			return nil
		}
		best.stats.Epoch = s.clusterEpoch
	}
	s.primaryURL = best.url
	s.logf("failover: adopted primary %s at epoch %d (applied seq %d)",
		best.url, s.clusterEpoch, best.stats.AppliedSeq)
	return best
}

// electLocked promotes the most-caught-up live follower under a freshly
// minted epoch: max AppliedSeq — never a node behind another live
// follower's horizon — with the lexically lowest NodeID breaking ties,
// so every supervisor incarnation looking at the same fleet picks the
// same winner. Returns the new primary, or nil when no follower is
// electable or the promotion failed (retried next round).
func (s *Supervisor) electLocked(ctx context.Context) *member {
	var cands []*member
	for _, m := range s.members {
		if m.det.Up() && m.seen && m.stats.Role == "follower" {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		s.logf("failover: primary %s is down and no follower is electable", s.primaryURL)
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].stats.AppliedSeq != cands[j].stats.AppliedSeq {
			return cands[i].stats.AppliedSeq > cands[j].stats.AppliedSeq
		}
		return cands[i].stats.NodeID < cands[j].stats.NodeID
	})
	win := cands[0]
	epoch := s.clusterEpoch + 1
	cctx, cancel := s.ctrlCtx(ctx)
	defer cancel()
	seq, gotEpoch, err := win.cl.PromoteEpoch(cctx, epoch)
	if err != nil {
		s.logf("failover: promote %s at epoch %d: %v", win.url, epoch, err)
		return nil
	}
	s.clusterEpoch = gotEpoch
	old := s.primaryURL
	s.primaryURL = win.url
	win.stats.Role, win.stats.Epoch, win.stats.AppliedSeq = "primary", gotEpoch, seq
	s.elections++
	s.tel.elections.Inc()
	s.logf("failover: elected %s (applied seq %d) to replace %s at epoch %d",
		win.url, seq, old, gotEpoch)
	return win
}

// NodeStatus is one supervised node's view in Status.
type NodeStatus struct {
	URL        string  `json:"url"`
	Up         bool    `json:"up"`
	Suspicion  float64 `json:"suspicion"`
	Role       string  `json:"role,omitempty"`
	NodeID     string  `json:"node_id,omitempty"`
	Epoch      int64   `json:"epoch"`
	AppliedSeq uint64  `json:"applied_seq"`
	Fenced     bool    `json:"fenced,omitempty"`
}

// Status is the supervisor's fleet view, served at GET /status.
type Status struct {
	RunID        string       `json:"run_id"`
	ClusterEpoch int64        `json:"cluster_epoch"`
	Primary      string       `json:"primary"`
	Elections    int64        `json:"elections"`
	Fences       int64        `json:"fences"`
	Nodes        []NodeStatus `json:"nodes"`
}

// Status snapshots the supervisor's current fleet view.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		RunID:        s.cfg.RunID,
		ClusterEpoch: s.clusterEpoch,
		Primary:      s.primaryURL,
		Elections:    s.elections,
		Fences:       s.fenceOps,
	}
	for _, m := range s.members {
		ns := NodeStatus{
			URL:       m.url,
			Up:        m.det.Up(),
			Suspicion: m.det.Suspicion(),
		}
		if m.seen {
			ns.Role = m.stats.Role
			ns.NodeID = m.stats.NodeID
			ns.Epoch = m.stats.Epoch
			ns.AppliedSeq = m.stats.AppliedSeq
			ns.Fenced = m.stats.Fenced
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// Handler serves the supervisor's control-plane API: the daemon chassis
// routes (daemon.Mux) plus
//
//	GET /status → Status JSON (fleet view, epoch, election count)
func (s *Supervisor) Handler() http.Handler {
	mux := daemon.Mux(s.tel.reg, s.tracer, s.cfg.EnablePprof)
	mux.HandleFunc("/status", daemon.GET(func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, s.Status())
	}))
	return mux
}

// supTelemetry bundles the supervisor's instruments. Event counters are
// incremented at the decision site; fleet gauges are mirrored from the
// supervisor's state at scrape time. reg is the supervisor's own
// registry, behind GET /metrics.
type supTelemetry struct {
	reg       *obs.Registry
	rounds    *obs.Counter
	elections *obs.Counter
	fences    *obs.Counter
}

func newSupTelemetry(s *Supervisor) *supTelemetry {
	reg := obs.NewRegistry()
	t := &supTelemetry{
		reg: reg,
		rounds: reg.Counter("keybin2failover_probe_rounds_total",
			"Probe-and-converge rounds completed."),
		elections: reg.Counter("keybin2failover_elections_total",
			"Follower promotions this supervisor performed."),
		fences: reg.Counter("keybin2failover_fences_total",
			"Fence/re-point control calls that succeeded."),
	}
	nodesUp := reg.Gauge("keybin2failover_nodes_up",
		"Supervised nodes currently considered live.")
	epochG := reg.Gauge("keybin2failover_cluster_epoch",
		"The supervisor's view of the cluster fencing epoch.")
	reg.OnCollect(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		var up int64
		for _, m := range s.members {
			if m.det.Up() {
				up++
			}
		}
		nodesUp.SetInt(up)
		epochG.SetInt(s.clusterEpoch)
	})
	return t
}
