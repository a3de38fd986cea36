package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// TestStreamConfigValidate pins the typed rejection of misconfigurations
// that used to be silently absorbed.
func TestStreamConfigValidate(t *testing.T) {
	base := StreamConfig{Config: Config{Seed: 1}, Dims: 4}
	ok := func(mut func(*StreamConfig)) StreamConfig {
		c := base
		mut(&c)
		return c
	}
	cases := []struct {
		name  string
		cfg   StreamConfig
		field string // expected StreamConfigError.Field ("" = valid)
	}{
		{"zero decay disables", ok(func(c *StreamConfig) { c.DecayFactor = 0 }), ""},
		{"valid decay", ok(func(c *StreamConfig) { c.DecayFactor = 0.5 }), ""},
		{"negative decay", ok(func(c *StreamConfig) { c.DecayFactor = -0.1 }), "DecayFactor"},
		{"decay one", ok(func(c *StreamConfig) { c.DecayFactor = 1 }), "DecayFactor"},
		{"decay above one", ok(func(c *StreamConfig) { c.DecayFactor = 1.5 }), "DecayFactor"},
		{"no dims", StreamConfig{}, "Dims"},
		{"deepest depth", ok(func(c *StreamConfig) { c.Depth = 16 }), ""},
		{"depth past uint16 bins", ok(func(c *StreamConfig) { c.Depth = 17 }), "Depth"},
		{"negative trials", ok(func(c *StreamConfig) { c.Trials = -1 }), "Trials"},
		{"period under warmup", ok(func(c *StreamConfig) { c.Warmup = 500; c.Period = 200 }), "Period"},
		{"period only defaulted", ok(func(c *StreamConfig) { c.Period = 200 }), ""},
		{"period under warmup but rawranges", ok(func(c *StreamConfig) {
			c.Warmup = 500
			c.Period = 200
			c.RawRanges = fixedRanges(4, -1, 1)
		}), ""},
		{"rawranges wrong arity", ok(func(c *StreamConfig) { c.RawRanges = fixedRanges(2, -1, 1) }), "RawRanges"},
		{"rawranges reversed", ok(func(c *StreamConfig) {
			r := fixedRanges(4, -1, 1)
			r[2] = [2]float64{3, -3}
			c.RawRanges = r
		}), "RawRanges"},
		{"rawranges zero width", ok(func(c *StreamConfig) { c.RawRanges = fixedRanges(4, 2, 2) }), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			var sce *StreamConfigError
			if !errors.As(err, &sce) {
				t.Fatalf("want *StreamConfigError, got %v", err)
			}
			if sce.Field != tc.field {
				t.Fatalf("error blames %q, want %q: %v", sce.Field, tc.field, err)
			}
			// NewStream must refuse the same config.
			if _, nerr := NewStream(tc.cfg); nerr == nil {
				t.Fatal("NewStream accepted a config Validate rejects")
			}
		})
	}
}

// TestValidateRefusesNonFiniteRanges: a raw range with a NaN or infinite
// bound, or a width past the largest float64, cannot bin anything; Validate
// refuses it with an error that names the value.
func TestValidateRefusesNonFiniteRanges(t *testing.T) {
	for _, c := range []struct {
		r     [2]float64
		names string
	}{
		{[2]float64{math.NaN(), 1}, "NaN"}, {[2]float64{0, math.NaN()}, "NaN"},
		{[2]float64{math.Inf(-1), 1}, "-Inf"}, {[2]float64{0, math.Inf(1)}, "+Inf"},
		{[2]float64{math.Inf(-1), math.Inf(1)}, "-Inf"}, {[2]float64{-1e308, 1e308}, "1e+308"},
	} {
		cfg := StreamConfig{Config: Config{Seed: 1}, Dims: 3, RawRanges: fixedRanges(3, -1, 1)}
		cfg.RawRanges[1] = c.r
		err := cfg.Validate()
		var sce *StreamConfigError
		if !errors.As(err, &sce) || sce.Field != "RawRanges" || !strings.Contains(err.Error(), c.names) {
			t.Errorf("range %v: %v, want a RawRanges error naming %s", c.r, err, c.names)
		}
	}
}

// TestDerivedRangesRefusedAtBuild: a projected range no checkpoint, fold
// or model could carry is refused where it is derived, with an error that
// names the value, never written into state that fails to decode. Raw
// ranges of ±1e307 over 64 dims pass Validate but project to an infinite
// spread; one +Inf in the warm-up makes an infinite warm-up range; a fit
// over data holding +Inf makes one too.
func TestDerivedRangesRefusedAtBuild(t *testing.T) {
	wide := StreamConfig{Config: Config{Seed: 1}, Dims: 64, RawRanges: fixedRanges(64, -1e307, 1e307)}
	if err := wide.Validate(); err != nil {
		t.Fatalf("Validate refused finite raw ranges: %v", err)
	}
	if _, err := NewStream(wide); err == nil || !strings.Contains(err.Error(), "Inf") {
		t.Errorf("NewStream over ±1e307 × 64 dims: %v, want an error naming Inf", err)
	}

	cfg := StreamConfig{Config: Config{Seed: 2, Trials: 2}, Dims: 3, Warmup: 50, Period: 100}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := linalg.NewMatrix(cfg.Warmup, cfg.Dims)
	for i := range batch.Data {
		batch.Data[i] = float64(i%7) - 3
	}
	batch.Data[10] = math.Inf(1)
	if _, err := st.IngestBatch(batch); err == nil || !strings.Contains(err.Error(), "Inf") {
		t.Errorf("warm-up holding +Inf: %v, want an error naming Inf", err)
	}
	if n, err := st.IngestBatch(batch); err == nil || n != 0 {
		t.Errorf("after a refused warm-up: %d rows applied, %v; want 0 and an error", n, err)
	}
	if b, err := st.Encode(); err == nil { // a stream still in warm-up writes no checkpoint
		if _, err := DecodeStream(cfg, b); err != nil {
			t.Errorf("checkpoint of the refused warm-up does not decode: %v", err)
		}
	}

	data := linalg.NewMatrix(200, 4)
	for i := range data.Data {
		data.Data[i] = float64(i % 11)
	}
	data.Data[17] = math.Inf(1)
	if _, _, err := Fit(data, Config{Seed: 3, Trials: 2}); err == nil || !strings.Contains(err.Error(), "Inf") {
		t.Errorf("Fit over data holding +Inf: %v, want an error naming Inf", err)
	}
}

// TestSnapshotConcurrentWithIngest is the race-detector proof of the
// single-writer/many-reader contract: one goroutine ingests (refitting
// every Period points) while readers continuously Snapshot and then
// Assign, Encode, and Describe the snapshot. Run under -race.
func TestSnapshotConcurrentWithIngest(t *testing.T) {
	const dims = 6
	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(50))
	st, err := NewStream(StreamConfig{
		Config: Config{Seed: 51, Trials: 2}, Dims: dims,
		RawRanges: fixedRanges(dims, -12, 12), Period: 250,
	})
	if err != nil {
		t.Fatal(err)
	}

	const points = 4000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(int64(100 + r))
			probe, _ := spec.Sample(8, rng)
			for {
				select {
				case <-done:
					return
				default:
				}
				m := st.Snapshot()
				if m == nil {
					continue
				}
				for i := 0; i < probe.Rows; i++ {
					if _, err := m.Assign(probe.Row(i)); err != nil {
						t.Errorf("assign: %v", err)
						return
					}
				}
				if len(m.Encode()) == 0 {
					t.Error("empty model encoding")
					return
				}
				_ = m.Describe()
			}
		}(r)
	}

	src := spec.Stream(points, xrand.New(52))
	for {
		x, _, ok := src.Next()
		if !ok {
			break
		}
		if _, err := st.Ingest(x); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if st.Refits() < points/250 {
		t.Fatalf("only %d refits over %d points", st.Refits(), points)
	}
	if st.Snapshot() == nil {
		t.Fatal("no snapshot after stream")
	}
}

// TestSnapshotImmutableAcrossRefits asserts a published model is detached
// from live state: its encoding must be byte-identical before and after
// the stream keeps ingesting, decaying, and refitting underneath it.
func TestSnapshotImmutableAcrossRefits(t *testing.T) {
	const dims = 5
	spec := synth.AutoMixture(2, dims, 6, 1, xrand.New(60))
	st, err := NewStream(StreamConfig{
		Config: Config{Seed: 61, Trials: 2}, Dims: dims,
		RawRanges: fixedRanges(dims, -12, 12), Period: 300, DecayFactor: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := spec.Stream(3000, xrand.New(62))
	feed := func(n int) {
		for i := 0; i < n; i++ {
			x, _, ok := src.Next()
			if !ok {
				t.Fatal("source exhausted")
			}
			if _, err := st.Ingest(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(600)
	snap := st.Snapshot()
	if snap == nil {
		t.Fatal("no model after two periods")
	}
	before := snap.Encode()
	gen := st.Refits()
	feed(1800)
	if st.Refits() == gen {
		t.Fatal("no refit happened while holding the snapshot")
	}
	if !bytes.Equal(before, snap.Encode()) {
		t.Fatal("published model mutated by later ingest/refit")
	}
}
