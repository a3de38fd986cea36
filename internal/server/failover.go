package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"keybin2/internal/daemon"
)

// Fencing epochs: split-brain prevention for replica sets.
//
// Every promotion mints a monotone cluster epoch (or adopts one handed
// down by the failover supervisor). The epoch travels with the data
// plane — ingest acks and 412 bodies carry it in JSON, every control
// response and the WAL tail carry it in X-KB2-Epoch — so clients and
// followers learn the newest epoch from normal traffic, and a zombie
// ex-primary that comes back from a partition is rejected with a typed
// stale-epoch error by anything that has seen a newer epoch.
//
// The invariants:
//
//   - The epoch only moves forward on a node (no edge of role.apply
//     lowers it, and transition publishes each edge atomically).
//   - /promote?epoch=N requires N > the node's epoch (absent N mints
//     current+1); the new primary therefore always outranks every node
//     that was alive at the old epoch.
//   - /fence?epoch=N requires N >= the node's epoch, and N > it on the
//     unfenced primary, which owns its epoch. Fencing a primary turns
//     its role fenced BEFORE the writer drains, and the ingest path
//     re-checks the role under ingestMu and again after the durability
//     wait, so no batch can be accepted (or late-acked) behind a fence.
//   - A fenced node becomes a follower only with a primary to rejoin.
//   - A request whose X-KB2-Epoch token is NEWER than the node's epoch
//     is answered 412: the node is the stale party. An OLDER token is
//     accepted — a lagging client writing to the true primary is fine,
//     and the ack's epoch catches it up.
//
// Epochs are deliberately NOT persisted: a restarted node rejoins at its
// configured epoch (default 0) and the supervisor re-adopts or fences it
// by comparing against the fleet; client epoch tokens fence a zombie
// even before the supervisor reaches it.

// writeStaleEpoch answers a request rejected by epoch fencing: 412
// Precondition Failed with the node's epoch in X-KB2-Epoch, plus both
// epochs and the best-known primary in the JSON body so the caller can
// re-discover the leader without a second round trip.
func (s *Server) writeStaleEpoch(w http.ResponseWriter, reqEpoch int64) {
	node := s.role.Load()
	w.Header().Set("X-KB2-Epoch", strconv.FormatInt(node.epoch, 10))
	if node.primary != "" {
		w.Header().Set("X-KB2-Primary", node.primary)
	}
	daemon.WriteJSON(w, http.StatusPreconditionFailed, map[string]any{
		"error":         "stale epoch",
		"node_epoch":    node.epoch,
		"request_epoch": reqEpoch,
		"primary":       node.primary,
	})
	s.tel.staleEpochRejects.Inc()
}

// requestEpoch parses the X-KB2-Epoch fencing token. 0 = no token.
func requestEpoch(r *http.Request) (int64, error) {
	v := r.Header.Get("X-KB2-Epoch")
	if v == "" {
		return 0, nil
	}
	e, err := strconv.ParseInt(v, 10, 64)
	if err != nil || e < 0 {
		return 0, fmt.Errorf("bad X-KB2-Epoch %q", v)
	}
	return e, nil
}

// admits is the fencing check an ingest passes three times — before
// touching the body, under ingestMu, and after the durability wait — each
// on one load of the role: only an unfenced primary takes writes, and not
// from a client whose token is newer than its epoch.
func (r *role) admits(reqEpoch int64) bool {
	return r.kind == rolePrimary && reqEpoch <= r.epoch
}

// refuseWrite answers an ingest that r does not admit. A token newer than
// the node's epoch means the node is stale (a zombie behind a partition),
// and a fenced node takes no writes at all: 412, before any other answer
// (even the follower redirect would mislead — this node's idea of the
// primary is as stale as its epoch). A replica never takes writes either:
// a typed redirect to the primary.
func (s *Server) refuseWrite(w http.ResponseWriter, r *role, reqEpoch int64) {
	if r.kind == roleFollower && reqEpoch <= r.epoch {
		s.rejectFollowerIngest(w, r)
		return
	}
	s.writeStaleEpoch(w, reqEpoch)
}

// roleRequest round-trips one role change through the serving loop,
// nudging a parked tail first so a long poll never delays the switch.
// Returns the loop's result or an error when the request could not be
// delivered.
func (s *Server) roleRequest(c roleChange, r *http.Request) (roleResult, error) {
	req := &roleReq{change: c, done: make(chan roleResult, 1)}
	s.nudgeFollower()
	select {
	case s.roleCh <- req:
	case <-s.done:
		return roleResult{}, errors.New("server is shutting down")
	case <-r.Context().Done():
		return roleResult{}, r.Context().Err()
	}
	select {
	case res := <-req.done:
		return res, nil
	case <-r.Context().Done():
		// The loop will still complete the switch; only the caller left.
		return roleResult{}, r.Context().Err()
	}
}

// writeRoleError answers a control request the role refused: a stale
// epoch is the 412 every fenced request gets, anything else is a
// conflict with the node's current role.
func (s *Server) writeRoleError(w http.ResponseWriter, err error, reqEpoch int64) {
	var stale *staleEpochError
	if errors.As(err, &stale) {
		s.writeStaleEpoch(w, reqEpoch)
		return
	}
	http.Error(w, err.Error(), http.StatusConflict)
}

// handleFence is POST /fence?epoch=N[&primary=URL]: fence this node at
// epoch N (which must be >= its current epoch). On a follower it adopts
// the epoch and re-points the tail at the given primary. On a primary it
// stops ingest at the fence line and — when a primary URL is given —
// demotes in place: the writer drains what it accepted before the fence,
// checkpoints, closes its WAL, and becomes a follower of the new
// primary. Fencing the unfenced primary at its OWN epoch is refused
// (409): that node is the epoch's legitimate owner.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil || epoch < 1 {
		http.Error(w, "fence requires epoch=N (N >= 1)", http.StatusBadRequest)
		return
	}
	primary := strings.TrimRight(r.URL.Query().Get("primary"), "/")
	prev, now, err := s.transition(roleChange{op: opFence, epoch: epoch, target: primary})
	if err != nil {
		s.writeRoleError(w, err, epoch)
		return
	}
	switch {
	case now.kind == roleFollower:
		if now.primary != prev.primary {
			s.nudgeFollower() // re-pointed: break the tail parked on the old primary
		}
	case primary != "":
		res, rerr := s.roleRequest(roleChange{op: opRejoin, target: primary}, r)
		if rerr != nil {
			return // caller gone or shutting down; the fence itself is in place
		}
		// errNotFenced means the role moved on while the request waited for
		// the serving loop: a concurrent demote won the race — the node is
		// already a follower, the state this fence wanted — or a promotion
		// at a newer epoch superseded this fence.
		if res.err != nil && !errors.Is(res.err, errNotFenced) {
			http.Error(w, "demote: "+res.err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.writeRoleStatus(w)
}

// handleEpoch is POST /epoch?epoch=N: the supervisor's adoption path. It
// raises the epoch of the CURRENT primary (initial adoption mints epoch
// 1 for an unmanaged group; re-adoption after a primary restart restores
// its recorded epoch). A follower refuses — its epoch arrives through
// /fence, /promote, or the WAL tail.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil || epoch < 1 {
		http.Error(w, "epoch requires epoch=N (N >= 1)", http.StatusBadRequest)
		return
	}
	if _, _, err := s.transition(roleChange{op: opAdopt, epoch: epoch}); err != nil {
		s.writeRoleError(w, err, epoch)
		return
	}
	s.writeRoleStatus(w)
}

// writeRoleStatus answers a control request with the node's role view.
func (s *Server) writeRoleStatus(w http.ResponseWriter) {
	r := s.role.Load()
	w.Header().Set("X-KB2-Epoch", strconv.FormatInt(r.epoch, 10))
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"role":        r.wireName(),
		"epoch":       r.epoch,
		"fenced":      r.kind == roleFenced,
		"primary":     r.primary,
		"applied_seq": s.appliedSeqA.Load(),
	})
}

// nudgeFollower breaks the follower loop out of a parked long poll or a
// reconnect backoff so a pending role change is observed immediately.
// Buffered: a nudge fired between tail rounds cancels the next round.
func (s *Server) nudgeFollower() {
	select {
	case s.nudge <- struct{}{}:
	default:
	}
}

// demote is the writer-side half of fencing a primary into a follower.
// It runs on the serving-loop goroutine. The role is already fenced (and
// the ingest path re-checks it under ingestMu), so taking ingestMu once
// is a barrier: afterwards no handler can add to the queue. The drain
// applies everything accepted before the fence line, a durability wait
// satisfies any in-flight group-commit waiters, and the WAL closes before
// the role turns follower — the tail will re-open nothing.
func (s *Server) demote(primary string) error {
	if _, err := s.role.Load().apply(roleChange{op: opRejoin, target: primary}); err != nil {
		return err // refused before the writer is touched
	}
	s.ingestMu.Lock()
	s.ingestMu.Unlock() //nolint:staticcheck // barrier: in-flight accepts have enqueued
drain:
	for {
		select {
		case it := <-s.queue:
			s.apply(it)
		default:
			break drain
		}
	}
	s.checkpoint()
	if wal := s.wal.Load(); wal != nil {
		if _, err := wal.WaitDurable(wal.LastSeq()); err != nil {
			s.logf("demote: wal sync: %v", err)
		}
		if err := wal.Close(); err != nil {
			s.logf("demote: wal close: %v", err)
		}
		s.wal.Store(nil)
	}
	s.primaryLastSeq.Store(0)
	s.behindSince.Store(time.Now().UnixNano())
	_, _, err := s.transition(roleChange{op: opRejoin, target: primary})
	return err
}
