package server

import (
	"errors"
	"fmt"
	"strings"
)

// A node's place in its replica set is one immutable value behind one
// atomic pointer: a reader loads it once and sees a kind, an epoch and a
// primary that belong together. It changes only through transition, which
// enforces the fencing invariants listed in failover.go and does the
// logging and telemetry for a change in one place. Replication progress
// (applied sequence, lag, reconnects) is not role and lives beside it.

type roleKind uint8

const (
	// rolePrimary takes writes; roleFollower tails a primary and refuses
	// them with a redirect; roleFenced is a primary cut off the write path
	// by an epoch it does not own, waiting to be demoted or reconciled.
	rolePrimary roleKind = iota
	roleFollower
	roleFenced
)

type role struct {
	kind  roleKind
	epoch int64 // fencing epoch; 0 = unmanaged
	// primary is the best-known primary base URL: the upstream a follower
	// tails, the rejoin target a fenced node was given ("" = none). It
	// changes only when a request names a target, so a promoted primary
	// still reports the node it used to follow — history, not authority.
	primary string
}

// wireName is the role as /stats and the control responses spell it. The
// wire format has two names: a fenced node reports "primary" with
// fenced=true.
func (r role) wireName() string {
	if r.kind == roleFollower {
		return "follower"
	}
	return "primary"
}

func (r role) String() string {
	kind := [...]string{"primary", "follower", "fenced"}[r.kind]
	if r.primary == "" {
		return fmt.Sprintf("%s@%d", kind, r.epoch)
	}
	return fmt.Sprintf("%s@%d(%s)", kind, r.epoch, r.primary)
}

type roleOp uint8

const (
	// opBoot gives a new node its first role: follower of target, or a
	// primary without one. Legal exactly once.
	opBoot roleOp = iota
	// opPromote turns a follower into a primary at a strictly newer epoch
	// (epoch 0 mints current+1).
	opPromote
	// opFence adopts an epoch ≥ current. A follower keeps following and
	// re-points at target when given one; a primary becomes fenced, with
	// target as its rejoin hint.
	opFence
	// opRejoin turns a fenced node into a follower of target: the last
	// step of an in-place demotion, after the writer has drained. A node
	// that is no longer fenced refuses: a concurrent demotion already made
	// it a follower, or a newer promotion superseded the fence.
	opRejoin
	// opAdopt raises the epoch of a node that is not a follower (the
	// supervisor's POST /epoch).
	opAdopt
)

// roleChange is one request against the role.
type roleChange struct {
	op     roleOp
	epoch  int64
	target string
}

var (
	errAlreadyPrimary = errors.New("already a primary")
	errNotFenced      = errors.New("not fenced")
	errNoRejoinTarget = errors.New("demote requires a primary to follow")
	errFollowerEpoch  = errors.New("follower: epoch is adopted via /fence, /promote, or the tail")
	errBootOnce       = errors.New("a node takes its first role exactly once")
)

// staleEpochError is the typed form of a fencing rejection inside the
// server; over HTTP it becomes a 412 with both epochs in the body.
type staleEpochError struct {
	NodeEpoch    int64
	RequestEpoch int64
}

func (e *staleEpochError) Error() string {
	return fmt.Sprintf("stale epoch: node is at %d, request carried %d", e.NodeEpoch, e.RequestEpoch)
}

// ownEpochError refuses to fence the unfenced primary at its own epoch:
// that node is the epoch's legitimate owner.
type ownEpochError struct{ Epoch int64 }

func (e *ownEpochError) Error() string {
	return fmt.Sprintf("node is the primary at epoch %d; fencing it requires a newer epoch", e.Epoch)
}

// apply is the transition table: the role c turns r into, or the typed
// error that refuses it. It never returns a lower epoch than r's.
func (r role) apply(c roleChange) (role, error) {
	switch c.op {
	case opPromote:
		if r.kind != roleFollower {
			return r, errAlreadyPrimary
		}
		if c.epoch == 0 {
			c.epoch = r.epoch + 1
		}
		if c.epoch <= r.epoch {
			return r, &staleEpochError{NodeEpoch: r.epoch, RequestEpoch: c.epoch}
		}
		return role{kind: rolePrimary, epoch: c.epoch, primary: r.primary}, nil
	case opFence:
		if c.epoch < r.epoch {
			return r, &staleEpochError{NodeEpoch: r.epoch, RequestEpoch: c.epoch}
		}
		if r.kind == rolePrimary && c.epoch == r.epoch {
			return r, &ownEpochError{Epoch: c.epoch}
		}
		next := role{kind: roleFenced, epoch: c.epoch, primary: r.primary}
		if r.kind == roleFollower {
			next.kind = roleFollower
		}
		if c.target != "" {
			next.primary = c.target
		}
		return next, nil
	case opRejoin:
		if r.kind != roleFenced {
			return r, errNotFenced
		}
		if c.target == "" {
			return r, errNoRejoinTarget
		}
		return role{kind: roleFollower, epoch: r.epoch, primary: c.target}, nil
	case opAdopt:
		if r.kind == roleFollower {
			return r, errFollowerEpoch
		}
		if c.epoch < r.epoch {
			return r, &staleEpochError{NodeEpoch: r.epoch, RequestEpoch: c.epoch}
		}
		return role{kind: r.kind, epoch: c.epoch, primary: r.primary}, nil
	}
	return r, errBootOnce // opBoot on a node that has a role
}

// transition is the only place the role pointer is stored. It applies c
// to the current role and publishes the result atomically, so concurrent
// requests serialize and a refused one leaves the role untouched. Returns
// the role before and after.
func (s *Server) transition(c roleChange) (prev, now role, err error) {
	c.target = strings.TrimRight(c.target, "/")
	for {
		old := s.role.Load()
		if (old == nil) != (c.op == opBoot) {
			return prev, now, errBootOnce
		}
		var next role
		if old == nil {
			next = role{epoch: c.epoch, primary: c.target}
			if c.target != "" {
				next.kind = roleFollower
			}
		} else if next, err = old.apply(c); err != nil || next == *old {
			return *old, next, err
		}
		if !s.role.CompareAndSwap(old, &next) {
			continue // a concurrent change won; judge c against its result
		}
		if next.kind == roleFollower {
			s.tel.exportReplica()
		}
		if old == nil {
			return prev, next, nil
		}
		switch {
		case old.kind == roleFollower && next.kind == rolePrimary:
			s.tel.promotions.Inc()
		case old.kind == rolePrimary && next.kind == roleFenced:
			s.tel.fences.Inc()
		case old.kind == roleFenced && next.kind == roleFollower:
			s.tel.demotions.Inc()
		}
		s.logf("role: %s -> %s (applied seq %d)", *old, next, s.appliedSeqA.Load())
		return *old, next, nil
	}
}

// roleReq carries a role change that must run on the serving-loop
// goroutine — a promote (which opens the WAL and aligns the accept path
// first) or a rejoin (which drains the writer first). done receives
// exactly one result.
type roleReq struct {
	change roleChange
	done   chan roleResult
}

type roleResult struct {
	err        error
	role       role
	appliedSeq uint64
}
