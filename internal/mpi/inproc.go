package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// world is the in-process transport: every rank is a goroutine and delivery
// is a queue append. This mirrors running K MPI ranks on one node and is
// what the experiment harness uses; the TCP transport provides the same
// semantics across machines.
type world struct {
	boxes []*mailbox

	mu   sync.Mutex
	dead map[int]bool // ranks that aborted
}

// send holds w.mu across the liveness check and the put, so a send racing
// the target's Abort either lands before abort marks the rank dead or
// sees it dead: it never finds the mailbox Abort closed after marking
// it. put never blocks, and abort releases w.mu before it takes any
// mailbox lock, so the lock order is one way.
func (w *world) send(to int, msg message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead[to] {
		return fmt.Errorf("mpi: send to rank %d: %w", to, RankFailedError{Rank: to})
	}
	return w.boxes[to].put(msg)
}

// abort marks rank dead in every mailbox, so any peer waiting on it (or on
// AnySource) fails with RankFailedError instead of blocking — the in-process
// equivalent of a dead TCP peer's connections closing everywhere. Sends to
// the dead rank fail the same way.
func (w *world) abort(rank int) {
	w.mu.Lock()
	if w.dead == nil {
		w.dead = make(map[int]bool)
	}
	w.dead[rank] = true
	w.mu.Unlock()
	for _, b := range w.boxes {
		b.fail(rank)
	}
}

// NewWorld creates size connected in-process communicators. The caller is
// responsible for running each returned Comm on its own goroutine and for
// calling Close when finished.
func NewWorld(size int) ([]*Comm, func()) {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size %d", size))
	}
	w := &world{boxes: make([]*mailbox, size)}
	comms := make([]*Comm, size)
	for i := range comms {
		w.boxes[i] = newMailbox()
		comms[i] = &Comm{rank: i, size: size, out: w, box: w.boxes[i], stats: newStats(size)}
	}
	closeAll := func() {
		for _, b := range w.boxes {
			b.close()
		}
	}
	return comms, closeAll
}

// Run executes fn on size in-process ranks and waits for all of them. The
// first root-cause error is returned: cascade artifacts (ErrClosed,
// RankFailedError on ranks that merely observed a peer's death) are
// suppressed in favour of the failing rank's own error. A panic in any rank
// is re-panicked in the caller after the other ranks are released, so tests
// fail loudly instead of deadlocking.
func Run(size int, fn func(c *Comm) error) error {
	comms, closeAll := NewWorld(size)
	defer closeAll()

	errs := make([]error, size)
	panics := make([]any, size)
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
					closeAll() // unblock peers stuck in Recv
				}
			}()
			errs[i] = fn(c)
			if errs[i] != nil {
				// A failing rank aborts so peers blocked on it fail fast
				// with RankFailedError (suppressed below as a cascade
				// artifact) instead of deadlocking.
				c.Abort()
			}
		}(i, c)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	var cascade error
	for _, err := range errs {
		if err == nil || errors.Is(err, ErrClosed) {
			continue
		}
		if _, ok := IsRankFailure(err); ok {
			if cascade == nil {
				cascade = err
			}
			continue
		}
		return err
	}
	return cascade
}

// RunCollect executes fn on size ranks and gathers each rank's result.
// Results are indexed by rank.
func RunCollect[T any](size int, fn func(c *Comm) (T, error)) ([]T, error) {
	out := make([]T, size)
	err := Run(size, func(c *Comm) error {
		v, err := fn(c)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		out[c.Rank()] = v
		return nil
	})
	return out, err
}
