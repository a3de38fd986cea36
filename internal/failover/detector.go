// Package failover is the replica-set control plane: a failure detector
// with flap hysteresis, the jittered probe round (Prober) that the shard
// router's health loop also runs, and a supervisor that watches a
// 1-primary/N-follower keybin2d group, deterministically elects the
// most-caught-up live follower when the primary dies, promotes it under a
// freshly minted fencing epoch, and fences or re-points every other node
// — no operator in the loop. See internal/server/failover.go for the data
// plane's half of the fencing contract.
package failover

// Detector is a consecutive-miss failure detector with recovery
// hysteresis — the poor engineer's phi-accrual: suspicion accrues one
// miss at a time instead of from an inter-arrival distribution, which is
// the right trade for probes this cheap and fleets this small. A node is
// demoted after FailAfter consecutive missed probes and readmitted only
// after RecoverAfter consecutive successes, so a node flapping at the
// probe cadence stays down instead of oscillating demote/readmit in
// lockstep with the prober.
//
// Not concurrency-safe: the caller owns the locking (the supervisor
// feeds every detector from its single decision goroutine; the shard
// router wraps each in a mutex because traffic paths also report).
type Detector struct {
	failAfter    int
	recoverAfter int
	up           bool
	misses       int // consecutive missed probes (while up, until failAfter)
	hits         int // consecutive successful probes while down
}

// NewDetector builds a detector that demotes after failAfter consecutive
// misses (min 1) and readmits after recoverAfter consecutive hits
// (min 1). It starts up — optimistic, so a fresh supervisor can adopt a
// healthy fleet before the first probe lands.
func NewDetector(failAfter, recoverAfter int) *Detector {
	if failAfter < 1 {
		failAfter = 1
	}
	if recoverAfter < 1 {
		recoverAfter = 1
	}
	return &Detector{failAfter: failAfter, recoverAfter: recoverAfter, up: true}
}

// Observe feeds one probe outcome. Returns the (possibly new) up state
// and whether this observation changed it.
func (d *Detector) Observe(ok bool) (up, changed bool) {
	if ok {
		d.misses = 0
		if d.up {
			return true, false
		}
		d.hits++
		if d.hits >= d.recoverAfter {
			d.up, d.hits = true, 0
			return true, true
		}
		return false, false
	}
	d.hits = 0
	d.misses++
	if d.up && d.misses >= d.failAfter {
		d.up = false
		return false, true
	}
	return d.up, false
}

// ForceDown demotes immediately on direct evidence (a transport error on
// a real traffic path outranks any number of pending probes). Returns
// whether the state changed. Readmission still takes RecoverAfter
// consecutive successful probes.
func (d *Detector) ForceDown() (changed bool) {
	d.hits = 0
	d.misses = d.failAfter
	if d.up {
		d.up = false
		return true
	}
	return false
}

// Up reports the current verdict.
func (d *Detector) Up() bool { return d.up }

// Misses is the current consecutive-miss count.
func (d *Detector) Misses() int { return d.misses }

// Suspicion is the accrued suspicion in [0,1]: misses/failAfter while
// up, 1 once demoted. The continuous shadow of the binary verdict —
// dashboards watch it climb before Up flips.
func (d *Detector) Suspicion() float64 {
	if !d.up {
		return 1
	}
	s := float64(d.misses) / float64(d.failAfter)
	if s > 1 {
		s = 1
	}
	return s
}
