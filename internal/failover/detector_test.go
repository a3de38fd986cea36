package failover

import "testing"

func TestDetectorConsecutiveMissDemotion(t *testing.T) {
	d := NewDetector(3, 2)
	if !d.Up() {
		t.Fatal("detector must start up (optimistic)")
	}
	for i := 0; i < 2; i++ {
		if up, changed := d.Observe(false); !up || changed {
			t.Fatalf("miss %d: up=%v changed=%v, want up, unchanged", i+1, up, changed)
		}
	}
	up, changed := d.Observe(false)
	if up || !changed {
		t.Fatalf("third consecutive miss: up=%v changed=%v, want down+changed", up, changed)
	}
	if d.Suspicion() != 1 {
		t.Fatalf("suspicion while down = %v, want 1", d.Suspicion())
	}
}

func TestDetectorHitResetsMisses(t *testing.T) {
	d := NewDetector(3, 2)
	// Flap pattern miss-miss-hit repeated: never 3 consecutive misses, so
	// the node must stay up no matter how long the pattern runs.
	for i := 0; i < 10; i++ {
		d.Observe(false)
		d.Observe(false)
		if up, _ := d.Observe(true); !up {
			t.Fatalf("cycle %d: demoted without %d consecutive misses", i, 3)
		}
	}
	if d.Misses() != 0 {
		t.Fatalf("misses after hit = %d, want 0", d.Misses())
	}
}

func TestDetectorRecoveryHysteresis(t *testing.T) {
	d := NewDetector(1, 3)
	d.Observe(false)
	if d.Up() {
		t.Fatal("failAfter=1 demotes on the first miss")
	}
	// Alternating hit/miss while down must never readmit: recovery takes
	// 3 consecutive hits.
	for i := 0; i < 5; i++ {
		d.Observe(true)
		if up, _ := d.Observe(false); up {
			t.Fatalf("cycle %d: readmitted without consecutive hits", i)
		}
	}
	d.Observe(true)
	d.Observe(true)
	up, changed := d.Observe(true)
	if !up || !changed {
		t.Fatalf("third consecutive hit: up=%v changed=%v, want up+changed", up, changed)
	}
}

func TestDetectorForceDown(t *testing.T) {
	d := NewDetector(5, 2)
	if changed := d.ForceDown(); !changed {
		t.Fatal("ForceDown on an up detector must report a change")
	}
	if d.Up() {
		t.Fatal("ForceDown must demote immediately")
	}
	if changed := d.ForceDown(); changed {
		t.Fatal("second ForceDown must be a no-op")
	}
	d.Observe(true)
	if d.Up() {
		t.Fatal("one hit must not readmit with recoverAfter=2")
	}
	d.Observe(true)
	if !d.Up() {
		t.Fatal("two consecutive hits must readmit")
	}
}

func TestDetectorSuspicionAccrues(t *testing.T) {
	d := NewDetector(4, 1)
	want := []float64{0.25, 0.5, 0.75}
	for i, w := range want {
		d.Observe(false)
		if got := d.Suspicion(); got != w {
			t.Fatalf("after %d misses suspicion = %v, want %v", i+1, got, w)
		}
	}
}
