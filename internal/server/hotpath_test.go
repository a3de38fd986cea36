package server

import (
	"sync"
	"testing"
	"time"

	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// Hot-path contracts: the zero-copy decode, the pooled buffer cycle, and
// the WAL's group commit. These are internal tests (package server) so
// they can reach the pools and the sketch of what Release recycles.

func hotBatch(t testing.TB, rows, dims int) *linalg.Matrix {
	t.Helper()
	spec := synth.AutoMixture(3, dims, 6, 1, xrand.New(5))
	m, _ := spec.Sample(rows, xrand.New(6))
	return m
}

// TestDecodeBatchAliasMatchesCopy pins the zero-copy decoder against the
// copying one: same matrix, and — on little-endian hosts with the body
// read at the aligned pool offset — no copy at all.
func TestDecodeBatchAliasMatchesCopy(t *testing.T) {
	m := hotBatch(t, 57, 5)
	wire := EncodeBatch(m)

	ref, err := DecodeBatch(wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Aligned path: body staged at bodyAlignPad inside a pooled buffer.
	bb := acquireBody(len(wire))
	copy(bb.b[bodyAlignPad:], wire)
	b, err := DecodeBatchAlias(bb.b[bodyAlignPad:], 0)
	if err != nil {
		t.Fatal(err)
	}
	b.body = bb
	if b.M.Rows != ref.Rows || b.M.Cols != ref.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", b.M.Rows, b.M.Cols, ref.Rows, ref.Cols)
	}
	for i, v := range ref.Data {
		if b.M.Data[i] != v {
			t.Fatalf("data[%d] = %v, want %v", i, b.M.Data[i], v)
		}
	}
	if hostLittleEndian && !b.Aliased() {
		t.Fatal("aligned little-endian decode did not alias")
	}
	if string(b.Raw()) != string(wire) {
		t.Fatal("Raw() does not return the wire bytes")
	}
	b.Release()

	// Misaligned payload: decode must fall back to copying, not crash or
	// return garbage.
	buf := make([]byte, len(wire)+1)
	copy(buf[1:], wire)
	mis, err := DecodeBatchAlias(buf[1:], 0)
	if err != nil {
		t.Fatal(err)
	}
	if mis.Aliased() {
		t.Fatal("decode aliased a misaligned payload")
	}
	for i, v := range ref.Data {
		if mis.M.Data[i] != v {
			t.Fatalf("misaligned data[%d] = %v, want %v", i, mis.M.Data[i], v)
		}
	}
	mis.Release()

	// Validation still bites: truncated and oversized bodies fail.
	if _, err := DecodeBatchAlias(wire[:len(wire)-3], 0); err == nil {
		t.Fatal("truncated batch decoded")
	}
	if _, err := DecodeBatchAlias(wire, m.Rows-1); err == nil {
		t.Fatal("maxPoints not enforced")
	}
}

// TestDecodeReleaseCycleAllocs pins the steady-state budget of the server
// decode path: acquire body, stage the wire bytes, alias-decode, release.
// After the pools are warm this must not allocate at all. Under -race the
// cycle still runs, for the race detector, but sync.Pool drops one Put in
// four there by design, so the count is pinned in other builds only (CI
// runs the Allocs tests once without -race).
func TestDecodeReleaseCycleAllocs(t *testing.T) {
	wire := EncodeBatch(hotBatch(t, 256, 16))
	cycle := func() {
		bb := acquireBody(len(wire))
		copy(bb.b[bodyAlignPad:], wire)
		b, err := DecodeBatchAlias(bb.b[bodyAlignPad:], 0)
		if err != nil {
			t.Fatal(err)
		}
		b.body = bb
		b.Release()
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the pools
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 && !raceEnabled {
		t.Fatalf("decode/release cycle allocates %.1f times, want 0", allocs)
	}
}

// TestWALAppendSteadyStateAllocs pins the buffered append: after the
// record buffer has grown to the working size, appending recycles it.
func TestWALAppendSteadyStateAllocs(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), func(c *WALConfig) {
		c.Fsync = FsyncNever
		c.SegmentBytes = 1 << 30 // no rotation during the measured runs
	})
	defer w.Close()
	hdr := make([]byte, 12)
	payload := make([]byte, 4096)
	if _, err := w.Append(hdr, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := w.Append(hdr, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state append allocates %.1f times, want 0", allocs)
	}
}

// TestWALGroupCommit pins the group-commit contract single-threaded,
// where it is deterministic: appends buffer without syncing; the first
// durability wait syncs the whole tail in one fsync and reports the group
// size; waits at or behind an already-covered sequence coalesce without
// touching the disk.
func TestWALGroupCommit(t *testing.T) {
	var fsyncs int32
	w := openTestWAL(t, t.TempDir(), func(c *WALConfig) {
		c.OnFsync = func(d time.Duration) { fsyncs++ }
	})
	defer w.Close()
	fsyncs = 0 // discard the segment-header sync from open

	var seqs []uint64
	for i := 0; i < 5; i++ {
		res, err := w.Append([]byte("grouped"))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, res.Seq)
	}
	if fsyncs != 0 {
		t.Fatalf("%d fsyncs before any durability wait, want 0", fsyncs)
	}

	// Waiting on the middle sequence leads one fsync covering the whole
	// appended tail.
	sw, err := w.WaitDurable(seqs[2])
	if err != nil {
		t.Fatal(err)
	}
	if sw.Coalesced || sw.Group != 5 {
		t.Fatalf("leader wait = %+v, want group of 5", sw)
	}
	if fsyncs != 1 {
		t.Fatalf("%d fsyncs for a 5-record group, want 1", fsyncs)
	}

	// Everything the group covered now coalesces, including the newest
	// sequence.
	for _, seq := range []uint64{seqs[0], seqs[4]} {
		sw, err := w.WaitDurable(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !sw.Coalesced {
			t.Fatalf("wait on covered seq %d did not coalesce: %+v", seq, sw)
		}
	}
	if fsyncs != 1 {
		t.Fatalf("coalesced waits performed fsyncs (total %d)", fsyncs)
	}

	// A new append dirties the tail again; its wait leads a group of 1.
	res, err := w.Append([]byte("tail"))
	if err != nil {
		t.Fatal(err)
	}
	if sw, err := w.WaitDurable(res.Seq); err != nil || sw.Coalesced || sw.Group != 1 {
		t.Fatalf("post-group append wait = %+v err=%v, want led group of 1", sw, err)
	}
}

// TestWALGroupCommitConcurrent hammers Append+WaitDurable from many
// goroutines and asserts the coalescing accounting: every wait succeeds,
// and the records made durable by led fsyncs plus the coalesced waits
// account for every append. Run under -race in CI, this is also the
// proof the group-commit locking is sound.
func TestWALGroupCommitConcurrent(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), nil)
	defer w.Close()

	const producers, perProducer = 8, 25
	var mu sync.Mutex
	var led, coalesced, groupSum int
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				res, err := w.Append([]byte("concurrent"))
				if err != nil {
					t.Error(err)
					return
				}
				sw, err := w.WaitDurable(res.Seq)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if sw.Coalesced {
					coalesced++
				} else {
					led++
					groupSum += sw.Group
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total := producers * perProducer
	if led+coalesced != total {
		t.Fatalf("%d led + %d coalesced != %d waits", led, coalesced, total)
	}
	if groupSum != total {
		t.Fatalf("led fsyncs covered %d records, want %d", groupSum, total)
	}
	t.Logf("group commit: %d records, %d fsyncs led, %d waits coalesced", total, led, coalesced)
}

// TestWaitDurableRelaxedPolicies pins that interval/never acks never wait
// on the disk: WaitDurable returns a zero SyncWait immediately.
func TestWaitDurableRelaxedPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncInterval, FsyncNever} {
		w := openTestWAL(t, t.TempDir(), func(c *WALConfig) { c.Fsync = policy })
		res, err := w.Append([]byte("relaxed"))
		if err != nil {
			t.Fatal(err)
		}
		sw, err := w.WaitDurable(res.Seq)
		if err != nil || sw != (SyncWait{}) {
			t.Fatalf("%s: WaitDurable = %+v err=%v, want zero/nil", policy, sw, err)
		}
		w.Close()
	}
}

// BenchmarkDecodeBatchZeroCopy measures the serving decode path: pooled
// body staging plus alias decode plus release for a 1024x16 batch.
func BenchmarkDecodeBatchZeroCopy(b *testing.B) {
	wire := EncodeBatch(hotBatch(b, 1024, 16))
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := acquireBody(len(wire))
		copy(bb.b[bodyAlignPad:], wire)
		batch, err := DecodeBatchAlias(bb.b[bodyAlignPad:], 0)
		if err != nil {
			b.Fatal(err)
		}
		batch.body = bb
		batch.Release()
	}
	b.StopTimer()
	b.ReportMetric(1024*float64(b.N)/b.Elapsed().Seconds(), "pts/s")
}

// BenchmarkGroupCommit measures the Append+WaitDurable pair with eight
// buffered appends sharing each fsync — the serving pattern under
// concurrent producers, minus the HTTP edge.
func BenchmarkGroupCommit(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	entry := make([]byte, 4096)
	const group = 8
	b.SetBytes(group * int64(len(entry)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var last uint64
		for j := 0; j < group; j++ {
			res, err := w.Append(entry)
			if err != nil {
				b.Fatal(err)
			}
			last = res.Seq
		}
		if _, err := w.WaitDurable(last); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(group)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}
