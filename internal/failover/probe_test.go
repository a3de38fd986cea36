package failover

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"keybin2/internal/xrand"
)

// recordingProber is a Prober whose delays fire at once and are recorded
// in the order the round starts them.
func recordingProber(every time.Duration, delays *[]time.Duration) *Prober {
	p := NewProber(every)
	p.after = func(d time.Duration) <-chan time.Time {
		*delays = append(*delays, d)
		c := make(chan time.Time, 1)
		c <- time.Time{}
		return c
	}
	return p
}

func TestProberRoundProbesEachMemberOnce(t *testing.T) {
	const n = 7
	var delays []time.Duration
	p := recordingProber(500*time.Millisecond, &delays)
	for round := 1; round <= 3; round++ {
		var probes [n]atomic.Int32
		p.Round(context.Background(), n, func(_ context.Context, i int) { probes[i].Add(1) })
		for i := range probes {
			if got := probes[i].Load(); got != 1 {
				t.Errorf("round %d: member %d probed %d times, want 1", round, i, got)
			}
		}
	}
	if len(delays) != 3*n {
		t.Fatalf("%d delays drawn over 3 rounds of %d members", len(delays), n)
	}
}

// TestProberDelaysAreTheSeededStream pins the delay sequence: one stream
// seeded 1, drawn in member order, round after round, each delay
// Float64·0.2·interval — the sequence both control planes drew before
// they shared the round.
func TestProberDelaysAreTheSeededStream(t *testing.T) {
	const n, every = 4, 500 * time.Millisecond
	var delays []time.Duration
	p := recordingProber(every, &delays)
	for round := 0; round < 3; round++ {
		p.Round(context.Background(), n, func(context.Context, int) {})
	}
	want := xrand.New(1)
	for k, d := range delays {
		w := time.Duration(want.Float64() * 0.2 * float64(every))
		if d != w {
			t.Errorf("round %d member %d: delay %v, want %v", k/n, k%n, d, w)
		}
		if d < 0 || d >= every/5 {
			t.Errorf("round %d member %d: delay %v outside [0, %v)", k/n, k%n, d, every/5)
		}
	}
}

func TestProberCancelDuringDelaysProbesNothing(t *testing.T) {
	const n = 5
	p := NewProber(time.Hour)
	started := make(chan struct{}, n)
	p.after = func(time.Duration) <-chan time.Time {
		started <- struct{}{}
		return nil // a delay that never ends
	}
	ctx, cancel := context.WithCancel(context.Background())
	var probed atomic.Int32
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		p.Round(ctx, n, func(context.Context, int) { probed.Add(1) })
	}()
	for i := 0; i < n; i++ {
		<-started
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Round did not return after its context was cancelled")
	}
	if got := probed.Load(); got != 0 {
		t.Fatalf("%d members probed after a cancel during the delays, want 0", got)
	}
}
