package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/daemon"
	"keybin2/internal/obs"
)

// Shard-cluster endpoints. A keybin2d node running as one shard of a
// logical cluster exposes its cumulative histogram state at GET /hist and
// accepts the coordinator's merged global model at POST /hist/install —
// the serving-layer realization of the paper's histogram-only exchange:
// shards never ship points, only binned summaries, and every shard ends
// each merge epoch holding the byte-identical global model.
//
// /hist round-trips through the writer goroutine (the histograms are live
// writer-owned state); /hist/install never touches the writer — the model
// arrives fully stabilized from the coordinator and lands in an atomic
// pointer the read path prefers over the local model.

// histInstallMaxBytes bounds the /hist/install body. Models are tens of
// kilobytes; anything near this limit is a confused or hostile caller.
const histInstallMaxBytes = 64 << 20

// histResult carries the writer goroutine's answer to a /hist request.
type histResult struct {
	state []byte
	seen  int64
	err   error
}

// exportHist runs on the writer goroutine (a runLoop select case): it
// encodes the stream's cumulative shard state while nothing else can be
// mutating the histograms.
func (s *Server) exportHist(resp chan<- histResult) {
	st := s.stream.Load()
	b, err := st.EncodeShardState()
	resp <- histResult{state: b, seen: int64(st.Seen()), err: err}
}

// handleHist serves the shard's cumulative histogram state. 409 on a
// follower (replicas don't participate in merges — their primary does),
// before warmup, or with decay on; 503 while draining or when the writer
// cannot answer in time.
func (s *Server) handleHist(w http.ResponseWriter, r *http.Request) {
	if s.role.Load().kind == roleFollower {
		http.Error(w, "follower replicas do not export shard state", http.StatusConflict)
		return
	}
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	// Join the coordinator's merge-epoch trace when it sent one: the
	// shard-side export cost lands in the same distributed trace as the
	// router's pull/fold/install spans.
	if pc, ok := obs.ExtractTraceparent(r.Header); ok {
		tr := s.tracer.StartLinked("hist_export", pc, obs.KV("node", s.cfg.NodeID))
		defer tr.Finish()
	}
	resp := make(chan histResult, 1)
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case s.histC <- resp:
	case <-s.done:
		http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
		return
	case <-timeout.C:
		http.Error(w, "writer busy; shard state unavailable", http.StatusServiceUnavailable)
		return
	}
	var res histResult
	select {
	case res = <-resp:
	case <-timeout.C:
		http.Error(w, "writer busy; shard state unavailable", http.StatusServiceUnavailable)
		return
	}
	if res.err != nil {
		// Pre-warmup or decay: a config-level refusal, not a transient.
		http.Error(w, res.err.Error(), http.StatusConflict)
		return
	}
	s.tel.histExports.Inc()
	s.tel.histStateBytes.SetInt(int64(len(res.state)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-KB2-Node", s.cfg.NodeID)
	w.Header().Set("X-KB2-Seen", strconv.FormatInt(res.seen, 10))
	w.Header().Set("X-KB2-Epoch", strconv.FormatInt(s.mergeEpoch.Load(), 10))
	w.Write(res.state)
}

// handleHistInstall accepts the coordinator's merged global model. The
// body is the encoded core.Model (which carries its stabilized labels);
// ?epoch=N orders installs — a stale epoch (a lagging coordinator retry,
// or a rejoining shard's catch-up racing the live merge) is refused with
// 409 so the newest model always wins. ?seen=N is the merged point count
// behind the model, reported in /stats.
func (s *Server) handleHistInstall(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil || epoch <= 0 {
		http.Error(w, "install needs ?epoch=N (N ≥ 1)", http.StatusBadRequest)
		return
	}
	var seen int64
	if v := r.URL.Query().Get("seen"); v != "" {
		if seen, err = strconv.ParseInt(v, 10, 64); err != nil {
			http.Error(w, "bad seen: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	body := ReadRequest(w, r, histInstallMaxBytes)
	if body == nil {
		return
	}
	m, err := core.DecodeModel(body.Bytes()) // copies what it keeps
	body.Release()
	if err != nil {
		http.Error(w, "bad model: "+err.Error(), http.StatusBadRequest)
		return
	}
	mdims := len(m.Set.Dims)
	if m.Projection != nil {
		mdims = m.Projection.Rows
	}
	if mdims != s.cfg.Stream.Dims {
		http.Error(w, fmt.Sprintf("model labels %d-dim points, shard expects %d", mdims, s.cfg.Stream.Dims), http.StatusBadRequest)
		return
	}
	start := time.Now()
	if pc, ok := obs.ExtractTraceparent(r.Header); ok {
		tr := s.tracer.StartLinked("hist_install", pc,
			obs.KV("node", s.cfg.NodeID), obs.KV("epoch", epoch))
		defer tr.Finish()
	}
	s.mergeMu.Lock()
	if cur := s.mergeEpoch.Load(); epoch <= cur {
		s.mergeMu.Unlock()
		w.Header().Set("X-KB2-Epoch", strconv.FormatInt(cur, 10))
		http.Error(w, fmt.Sprintf("stale install: epoch %d ≤ current %d", epoch, cur), http.StatusConflict)
		return
	}
	s.globalModel.Store(m)
	s.globalSeen.Store(seen)
	s.mergeEpoch.Store(epoch)
	s.mergeMu.Unlock()
	s.tel.histInstalls.Inc()
	s.tel.histInstallSec.Observe(time.Since(start).Seconds())
	s.logf("merge: installed global model epoch %d (%d clusters, %d points merged)", epoch, m.K(), seen)
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"epoch": epoch, "clusters": m.K(), "node_id": s.cfg.NodeID,
	})
}

// servingModel is the model the read path answers from: the cluster's
// installed global model when one exists (every shard serving the same
// snapshot is the whole point of the merge), the local model otherwise.
// The generation is the merge epoch for a global model — identical across
// shards, which is what lets a router fan /label to any of them — and the
// local refit count for a local one.
func (s *Server) servingModel() (*core.Model, int64) {
	if m := s.globalModel.Load(); m != nil {
		return m, s.mergeEpoch.Load()
	}
	return s.stream.Load().Snapshot(), s.refits.Load()
}
