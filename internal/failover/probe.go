package failover

import (
	"context"
	"sync"
	"time"

	"keybin2/internal/xrand"
)

// probeJitter is the fraction of the probe cadence over which a round
// spreads its members' probes.
const probeJitter = 0.2

// Prober runs the jittered probe rounds of both control planes: the
// supervisor's /stats round and the shard router's /healthz round. Each
// feeds a Detector per member from the outcomes.
//
// Not concurrency-safe: one goroutine runs the rounds.
type Prober struct {
	every time.Duration
	rng   *xrand.Stream
	// after starts a member's delay; tests substitute it to observe the
	// delays and to hold a round open.
	after func(time.Duration) <-chan time.Time
}

// NewProber builds a Prober for rounds run every interval. Its delay
// stream is seeded 1, so every control plane draws the same sequence.
func NewProber(every time.Duration) *Prober {
	return &Prober{every: every, rng: xrand.New(1), after: time.After}
}

// Round probes members 0..n-1 in parallel and returns once every probe
// has returned. Member i is probed after a delay in [0, 0.2·interval),
// drawn in member order on the calling goroutine, so a fleet never sees
// its probes land in lockstep. A member whose delay ctx cuts short is
// not probed: a shutdown is not a miss.
func (p *Prober) Round(ctx context.Context, n int, probe func(ctx context.Context, i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wait := p.after(time.Duration(p.rng.Float64() * probeJitter * float64(p.every)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-wait:
			case <-ctx.Done():
				return
			}
			probe(ctx, i)
		}()
	}
	wg.Wait()
}
