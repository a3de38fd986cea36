package core

import (
	"bytes"
	"fmt"
	"testing"

	"keybin2/internal/keys"
	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// sketchContents flattens a trial sketch into a comparable map, so state
// equivalence is asserted on the semantic content whatever order the
// cells were inserted in.
func sketchContents(sk *trialSketch) map[string]float64 {
	out := make(map[string]float64, sk.len())
	sk.each(func(k keys.Key, n float64) { out[string(k.Pack())] = n })
	return out
}

// assertStreamsEqual asserts two streams hold identical state: points
// seen, refit count, sketch masses, and (when published) the exact model
// encoding.
func assertStreamsEqual(t *testing.T, a, b *Stream) {
	t.Helper()
	if a.Seen() != b.Seen() {
		t.Fatalf("seen: %d vs %d", a.Seen(), b.Seen())
	}
	if len(a.sketch) != len(b.sketch) {
		t.Fatalf("trials: %d vs %d", len(a.sketch), len(b.sketch))
	}
	for tr := range a.sketch {
		sa, sb := sketchContents(a.sketch[tr]), sketchContents(b.sketch[tr])
		if len(sa) != len(sb) {
			t.Fatalf("trial %d: %d vs %d sketch keys", tr, len(sa), len(sb))
		}
		for k, n := range sa {
			if sb[k] != n {
				t.Fatalf("trial %d key %x: mass %v vs %v", tr, k, n, sb[k])
			}
		}
	}
	ma, mb := a.Snapshot(), b.Snapshot()
	if (ma == nil) != (mb == nil) {
		t.Fatalf("model presence: %v vs %v", ma != nil, mb != nil)
	}
	if ma != nil && !bytes.Equal(ma.Encode(), mb.Encode()) {
		t.Fatal("models encode differently")
	}
}

// TestIngestBatchMatchesPointwise pins the batch path's contract: for any
// chunking — including batches that straddle the warmup fill and multiple
// refit boundaries — IngestBatchLabels produces byte-identical state and
// labels to point-at-a-time Ingest. Decay is exercised too: both paths
// must add each point's unit mass individually, so even the accumulated
// floats match to the last bit.
func TestIngestBatchMatchesPointwise(t *testing.T) {
	const dims, total = 8, 3000
	ranges := make([][2]float64, dims)
	for j := range ranges {
		ranges[j] = [2]float64{-12, 12}
	}
	configs := map[string]StreamConfig{
		"warmup":        {Config: Config{Seed: 7, Trials: 2}, Dims: dims, Warmup: 500, Period: 500},
		"ranges":        {Config: Config{Seed: 8, Trials: 2}, Dims: dims, RawRanges: ranges, Period: 450},
		"decay":         {Config: Config{Seed: 9, Trials: 2}, DecayFactor: 0.9, Dims: dims, Warmup: 400, Period: 450},
		"parallel-pool": {Config: Config{Seed: 10, Trials: 2, Workers: 4}, Dims: dims, Warmup: 400, Period: 500},
		// A Period longer than blockRows: one chunk spans several blocks.
		"blocks": {Config: Config{Seed: 11, Trials: 2}, Dims: dims, RawRanges: ranges, Period: 2500},
	}
	sizes := []int{1, 7, 64, 997, total}
	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(50))
	data, _ := spec.Sample(total, xrand.New(51))

	for name, cfg := range configs {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("%s/batch=%d", name, size), func(t *testing.T) {
				ref, err := NewStream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				refLabels := make([]int, total)
				for i := 0; i < total; i++ {
					l, err := ref.Ingest(data.Row(i))
					if err != nil {
						t.Fatal(err)
					}
					refLabels[i] = l
				}

				st, err := NewStream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gotLabels := make([]int, total)
				for off := 0; off < total; off += size {
					n := size
					if off+n > total {
						n = total - off
					}
					chunk := linalg.Matrix{Rows: n, Cols: dims, Data: data.Data[off*dims : (off+n)*dims]}
					applied, err := st.IngestBatchLabels(&chunk, gotLabels[off:off+n])
					if err != nil {
						t.Fatal(err)
					}
					if applied != n {
						t.Fatalf("applied %d of %d rows", applied, n)
					}
				}

				for i := range refLabels {
					if refLabels[i] != gotLabels[i] {
						t.Fatalf("point %d: label %d vs pointwise %d", i, gotLabels[i], refLabels[i])
					}
				}
				if ref.Refits() != st.Refits() {
					t.Fatalf("refits: %d vs %d", ref.Refits(), st.Refits())
				}
				assertStreamsEqual(t, ref, st)
			})
		}
	}
}

// TestIngestBatchCheckpointRoundTrip asserts the batch path's state
// survives the checkpoint codec exactly as the pointwise path's does: a
// batch-built stream checkpoints, restores, and continues identically to
// a pointwise stream doing the same.
func TestIngestBatchCheckpointRoundTrip(t *testing.T) {
	const dims, total = 6, 2000
	cfg := StreamConfig{Config: Config{Seed: 21, Trials: 2}, Dims: dims, Warmup: 300, Period: 350}
	spec := synth.AutoMixture(2, dims, 6, 1, xrand.New(60))
	data, _ := spec.Sample(total, xrand.New(61))

	ref, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total/2; i++ {
		if _, err := ref.Ingest(data.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := linalg.Matrix{Rows: total / 2, Cols: dims, Data: data.Data[:total/2*dims]}
	if _, err := st.IngestBatch(&half); err != nil {
		t.Fatal(err)
	}

	blob, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeStream(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	assertStreamsEqual(t, ref, restored)

	// Continue both halves — pointwise on the reference, batch on the
	// restored stream — and require convergence to the same state again.
	for i := total / 2; i < total; i++ {
		if _, err := ref.Ingest(data.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	rest := linalg.Matrix{Rows: total - total/2, Cols: dims, Data: data.Data[total/2*dims:]}
	if _, err := restored.IngestBatch(&rest); err != nil {
		t.Fatal(err)
	}
	assertStreamsEqual(t, ref, restored)
}

// TestIngestBatchSteadyStateAllocs pins the hot-path allocation budget:
// once past warmup, an IngestBatch that stays inside a refit period
// allocates nothing — the projection block and the packed sketch are
// reused — whatever the stream's worker budget.
func TestIngestBatchSteadyStateAllocs(t *testing.T) {
	const dims = 16
	ranges := make([][2]float64, dims)
	for j := range ranges {
		ranges[j] = [2]float64{-12, 12}
	}
	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(70))
	// Larger than blockRows, so a batch is projected in several blocks.
	batch, _ := spec.Sample(blockRows+500, xrand.New(71))
	for _, workers := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st, err := NewStream(StreamConfig{
				Config:    Config{Seed: 31, Trials: 3, Workers: workers},
				Dims:      dims,
				RawRanges: ranges,
				Period:    1 << 30, // no refit during the measured runs
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm the scratch block and let the packed sketch maps grow
			// to their working size.
			for i := 0; i < 8; i++ {
				if _, err := st.IngestBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := st.IngestBatch(batch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("steady-state IngestBatch allocates %.1f times per batch, want 0", allocs)
			}
		})
	}
}

// BenchmarkIngestBatch measures the core batch-apply path alone: no HTTP,
// no WAL — projection, binning, and sketch updates for a 1024-point
// batch, refitting every 5000 points as the serving fixture does.
func BenchmarkIngestBatch(b *testing.B) {
	const dims, rows = 16, 1024
	ranges := make([][2]float64, dims)
	for j := range ranges {
		ranges[j] = [2]float64{-12, 12}
	}
	st, err := NewStream(StreamConfig{
		Config:    Config{Seed: 41, Trials: 3},
		Dims:      dims,
		RawRanges: ranges,
		Period:    5000,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(80))
	batch, _ := spec.Sample(rows, xrand.New(81))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.IngestBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "pts/s")
}

// BenchmarkStreamRefit times Refit alone on the serving benchmark's stream
// (16 dims, 3 trials, a 4-component mixture, Period 5000) once ~400k points
// have filled its histograms and sketches. Refit without decay leaves the
// ingest state as it found it, so every iteration refits the same state.
func BenchmarkStreamRefit(b *testing.B) {
	const dims, rows, batches = 16, 1024, 400
	ranges := make([][2]float64, dims)
	for j := range ranges {
		ranges[j] = [2]float64{-12, 12}
	}
	st, err := NewStream(StreamConfig{
		Config:    Config{Seed: 4, Trials: 3},
		Dims:      dims,
		RawRanges: ranges,
		Period:    5000,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := synth.AutoMixture(4, dims, 6, 1, xrand.New(1))
	rng := xrand.New(91)
	for i := 0; i < batches; i++ {
		batch, _ := spec.Sample(rows, rng)
		if _, err := st.IngestBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Refit(); err != nil {
			b.Fatal(err)
		}
	}
}
