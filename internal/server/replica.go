package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"keybin2/internal/daemon"
)

// Follower replica: the serving loop runs followLoop instead of the
// writer loop. It tails the primary's WAL (GET /wal), replays every
// record into its own stream through the same applyWALEntry path startup
// recovery uses — which is what makes its /label answers byte-identical
// to the primary's — and periodically checkpoints so a restart resumes
// the tail from its covered sequence instead of seq 0.
//
// Promotion (POST /promote) happens on this same goroutine: it opens the
// local WAL at the applied horizon, aligns the accept path's sequence
// numbering and idempotency map with what replication delivered, flips
// the follower flag last, and then returns to serve() — the tail
// goroutine becomes the writer goroutine, so ownership of the stream
// never has a gap. Demotion (a /fence with a primary target) is the
// inverse and lands in runLoop; both directions are re-armable, so a
// node can cycle follower → primary → follower across failovers.

// defaultFollowClient builds the HTTP client the follower tails with.
// Connection setup and time-to-first-byte are bounded — a hung (not
// dead) primary must fail the round instead of wedging the tail forever
// — but there is no overall request timeout: the response header arrives
// before the primary parks in its long poll, and a healthy tail body may
// legitimately stream for a long time.
func defaultFollowClient(poll time.Duration) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: poll + 5*time.Second,
			MaxIdleConnsPerHost:   2,
		},
	}
}

// errTailInterrupted marks a tail round canceled by a nudge (a pending
// promote/fence/shutdown) rather than by a transport failure: the loop
// re-enters its select immediately, with no reconnect backoff.
var errTailInterrupted = errors.New("tail interrupted")

// followLoop is the replica's serving loop body: tail, apply,
// checkpoint, and — when asked — switch roles. Returns false on
// shutdown, true after a promotion switched the node's role (serve()
// re-enters as runLoop on this same goroutine).
func (s *Server) followLoop() bool {
	client := defaultFollowClient(s.cfg.FollowPoll)
	var ckptC <-chan time.Time
	if s.cfg.CheckpointPath != "" {
		t := time.NewTicker(s.cfg.CheckpointEvery)
		defer t.Stop()
		ckptC = t.C
	}

	backoff := 50 * time.Millisecond
	reconnecting := false
	for {
		select {
		case <-s.done:
			s.checkpoint()
			return false
		case req := <-s.roleCh:
			// A rejoin finds a follower already: the fence handler has
			// adopted the epoch and re-pointed the tail; there is no writer
			// to demote.
			err := errNotFenced
			if req.change.op == opPromote {
				if err = s.promote(req.change.epoch); err != nil {
					s.logf("promote: %v", err)
				}
			}
			req.done <- roleResult{err: err, role: *s.role.Load(), appliedSeq: s.appliedSeqA.Load()}
			if err == nil {
				return true // now a primary; serve() switches loops
			}
			continue // stay a follower, keep tailing
		case <-ckptC:
			s.checkpoint()
			continue
		default:
		}
		if reconnecting {
			s.tel.tailReconnects.Inc()
		}
		err := s.tailRound(client)
		if err == nil {
			reconnecting = false
			backoff = 50 * time.Millisecond
			continue
		}
		if errors.Is(err, errTailInterrupted) {
			continue // a role change or shutdown nudged us; resolve above
		}
		s.logf("follow %s: %v", s.role.Load().primary, err)
		reconnecting = true
		select {
		case <-time.After(backoff):
		case <-s.done:
		case <-s.nudge:
			// A role change (or re-point) wants attention now; the nudge is
			// consumed, but the pending request is picked up at the select.
		}
		if backoff *= 2; backoff > s.cfg.FollowMaxBackoff {
			backoff = s.cfg.FollowMaxBackoff
		}
	}
}

// tailRound runs one tail request under a per-round context that a
// nudge (promote, fence re-point, shutdown) cancels — an in-flight long
// poll on the primary breaks immediately instead of delaying the role
// change by up to FollowPoll.
func (s *Server) tailRound(client *http.Client) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.done:
			cancel()
		case <-s.nudge:
			cancel()
		case <-stop:
		}
	}()
	err := s.tailOnce(ctx, client)
	if err != nil && ctx.Err() != nil {
		return errTailInterrupted
	}
	return err
}

// tailOnce performs one tail round: request records after the replica's
// applied sequence (long-polling when caught up), apply every returned
// record, and refresh the lag bookkeeping from the primary's horizon
// (X-KB2-WAL-Last-Seq) once the whole body has arrived.
// The round carries the replica's fencing epoch: a primary that is
// staler than we are answers 412 and we refuse its records, and a
// response carrying a newer epoch is adopted — fencing news travels
// through the tail as well as the control plane.
func (s *Server) tailOnce(ctx context.Context, client *http.Client) error {
	me := s.role.Load()
	base := me.primary
	if base == "" {
		return errors.New("tail: no primary to follow")
	}
	url := fmt.Sprintf("%s/wal?from=%d&wait=%s&max_bytes=%d",
		base, s.appliedSeq, s.cfg.FollowPoll, 4<<20)
	if me.epoch > 0 {
		url += "&epoch=" + strconv.FormatInt(me.epoch, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if v := resp.Header.Get("X-KB2-Epoch"); v != "" {
		if respEpoch, perr := strconv.ParseInt(v, 10, 64); perr == nil {
			// A newer epoch is adopted the way a target-less fence would be.
			// A primary behind our epoch is a zombie; applying its records
			// could replay a fenced-off history.
			if _, now, err := s.transition(roleChange{op: opFence, epoch: respEpoch}); err != nil {
				return fmt.Errorf("tail: primary %s is at stale epoch %d (we are at %d)",
					base, respEpoch, now.epoch)
			}
		}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The primary truncated the records we need: re-bootstrap from its
		// newest checkpoint snapshot, then resume tailing from there.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return s.bootstrapFromSnapshot(ctx, client, base)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("tail: primary answered %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	// A primary built before the tail shipped stored records answers with
	// another type: refuse the round before reading a byte of its body.
	if ct := resp.Header.Get("Content-Type"); ct != walTailType {
		return fmt.Errorf("tail: primary sent %q, want %q", ct, walTailType)
	}
	lastSeq, err := strconv.ParseUint(resp.Header.Get("X-KB2-WAL-Last-Seq"), 10, 64)
	if err != nil {
		return fmt.Errorf("tail: bad X-KB2-WAL-Last-Seq: %w", err)
	}
	tr := newWALTailReader(resp.Body)
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("tail: %w", err)
		}
		if rec.Seq != s.appliedSeq+1 {
			return fmt.Errorf("tail: record seq %d does not follow applied seq %d", rec.Seq, s.appliedSeq)
		}
		if _, _, err := s.applyWALEntry(rec.Seq, rec.Entry); err != nil {
			return fmt.Errorf("tail: apply seq %d: %w", rec.Seq, err)
		}
	}
	s.primaryLastSeq.Store(lastSeq)
	if s.appliedSeq >= lastSeq {
		s.behindSince.Store(0)
	} else if s.behindSince.Load() == 0 {
		s.behindSince.Store(time.Now().UnixNano())
	}
	return nil
}

// bootstrapFromSnapshot replaces the replica's stream with the primary's
// newest checkpoint — the resync path when the tail's history is gone.
// Runs on the follower goroutine; readers see the swap atomically through
// the stream pointer.
func (s *Server) bootstrapFromSnapshot(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("bootstrap: primary answered %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := s.installCheckpoint(blob); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	s.logf("bootstrap: restored %d points from primary snapshot, resuming tail at seq %d",
		s.stream.Load().Seen(), s.appliedSeq)
	return nil
}

// promote turns the replica into a primary at its replayed horizon,
// minting (epoch 0) or adopting (epoch > current) a fencing epoch. Runs
// on the serving-loop goroutine, so the stream and the applied-state
// maps are stable while it works. Ordering matters: the WAL pointer and
// the accept path's numbering are installed BEFORE the role turns
// primary, so any handler that observes "primary" sees a fully writable
// node.
func (s *Server) promote(epoch int64) error {
	change := roleChange{op: opPromote, epoch: epoch}
	if _, err := s.role.Load().apply(change); err != nil {
		return err // refused before the WAL is touched
	}
	if s.cfg.WALDir != "" {
		if err := s.attachWAL(false); err != nil {
			return fmt.Errorf("promote: %w", err)
		}
		// The replicated prefix lives only in memory until a checkpoint
		// covers it: write one now, so a crash before the first periodic
		// checkpoint restores it, and its truncation drops any segments
		// ForwardTo left behind.
		s.checkpoint()
	}
	// The WAL (if any) now ends at appliedSeq, and every record replication
	// or replay applied already raised the idempotency map.
	s.ingestMu.Lock()
	s.nextSeq = s.appliedSeq
	s.ingestMu.Unlock()
	s.behindSince.Store(0)
	_, _, err := s.transition(change) // last: readers now see a writable primary
	if err != nil {
		// A fence raised the epoch past this promotion while the WAL was
		// opening: stay the follower that fence asked for.
		if wal := s.wal.Swap(nil); wal != nil {
			wal.Close()
		}
		s.behindSince.Store(time.Now().UnixNano())
	}
	return err
}

// handlePromote triggers promotion on a follower (POST /promote) and
// waits for it to finish. ?epoch=N adopts the given fencing epoch (it
// must exceed the node's current epoch); without it the promotion mints
// current+1. A node that is already a primary answers 409, as does a
// stale epoch — both leave the node untouched.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var epoch int64
	if v := r.URL.Query().Get("epoch"); v != "" {
		var err error
		epoch, err = strconv.ParseInt(v, 10, 64)
		if err != nil || epoch < 1 {
			http.Error(w, "bad epoch: must be an integer >= 1", http.StatusBadRequest)
			return
		}
	}
	res := roleResult{err: errAlreadyPrimary}
	if s.role.Load().kind == roleFollower {
		var err error
		if res, err = s.roleRequest(roleChange{op: opPromote, epoch: epoch}, r); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	var stale *staleEpochError
	switch {
	case res.err == nil:
	case errors.Is(res.err, errAlreadyPrimary), errors.As(res.err, &stale):
		// Both leave the node untouched.
		http.Error(w, res.err.Error(), http.StatusConflict)
		return
	default:
		http.Error(w, res.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-KB2-Epoch", strconv.FormatInt(res.role.epoch, 10))
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"promoted":    true,
		"applied_seq": res.appliedSeq,
		"epoch":       res.role.epoch,
	})
}

// rejectFollowerIngest answers an ingest aimed at a replica: 421
// Misdirected Request with the primary's URL in both the X-KB2-Primary
// header and the JSON body. 421 rather than a 3xx redirect because Go
// clients transparently re-POST redirects, which would hide the
// misdirection from the producer instead of surfacing it as a typed
// error.
func (s *Server) rejectFollowerIngest(w http.ResponseWriter, r *role) {
	w.Header().Set("X-KB2-Primary", r.primary)
	if r.epoch > 0 {
		w.Header().Set("X-KB2-Epoch", strconv.FormatInt(r.epoch, 10))
	}
	daemon.WriteJSON(w, http.StatusMisdirectedRequest, map[string]any{
		"error":   "follower replica: ingest must go to the primary",
		"primary": r.primary,
	})
}
