package core

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// shardData splits a sampled dataset across size ranks.
func shardData(data *linalg.Matrix, truth []int, size, rank int) (*linalg.Matrix, []int) {
	lo, hi := synth.Shard(data.Rows, size, rank)
	sub := linalg.NewMatrix(hi-lo, data.Cols)
	copy(sub.Data, data.Data[lo*data.Cols:hi*data.Cols])
	return sub, truth[lo:hi]
}

func TestFitDistributedMatchesQuality(t *testing.T) {
	spec := synth.AutoMixture(4, 20, 6, 1, xrand.New(20))
	data, truth := spec.Sample(12000, xrand.New(21))
	const ranks = 4

	type out struct {
		labels []int
		truth  []int
		k      int
		trial  int
	}
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (out, error) {
		local, localTruth := shardData(data, truth, ranks, c.Rank())
		model, labels, err := FitDistributed(c, local, Config{Seed: 22})
		if err != nil {
			return out{}, err
		}
		return out{labels: labels, truth: localTruth, k: model.K(), trial: model.Trial}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All ranks must agree on the model.
	for r := 1; r < ranks; r++ {
		if results[r].k != results[0].k || results[r].trial != results[0].trial {
			t.Fatalf("rank %d disagrees: k=%d/%d trial=%d/%d", r, results[r].k, results[0].k, results[r].trial, results[0].trial)
		}
	}
	// Stitch local labels back together and evaluate globally.
	var pred, tr []int
	for _, r := range results {
		pred = append(pred, r.labels...)
		tr = append(tr, r.truth...)
	}
	p, rc, f1 := eval.PrecisionRecallF1(pred, tr)
	t.Logf("distributed: k=%d p=%.3f r=%.3f f1=%.3f", results[0].k, p, rc, f1)
	if f1 < 0.6 {
		t.Fatalf("distributed f1 %.3f", f1)
	}
}

func TestFitDistributedEqualsSerial(t *testing.T) {
	// With identical seeds, the distributed fit must produce exactly the
	// serial labels: the same projections, global ranges, histograms, and
	// partitions arise on both paths.
	spec := synth.AutoMixture(3, 16, 6, 1, xrand.New(23))
	data, _ := spec.Sample(6000, xrand.New(24))
	_, serialLabels, err := Fit(data, Config{Seed: 25, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 5} {
		for _, ring := range []bool{false, true} {
			results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([]int, error) {
				local, _ := shardData(data, make([]int, data.Rows), ranks, c.Rank())
				_, labels, err := FitDistributed(c, local, Config{Seed: 25, Trials: 3, Ring: ring})
				return labels, err
			})
			if err != nil {
				t.Fatal(err)
			}
			var distributed []int
			for _, r := range results {
				distributed = append(distributed, r...)
			}
			if !reflect.DeepEqual(serialLabels, distributed) {
				diff := 0
				for i := range serialLabels {
					if serialLabels[i] != distributed[i] {
						diff++
					}
				}
				t.Errorf("ranks=%d ring=%v: serial and distributed labels differ at %d/%d points", ranks, ring, diff, len(serialLabels))
			}
		}
	}
}

func TestFitDistributedRingTopology(t *testing.T) {
	spec := synth.AutoMixture(4, 20, 6, 1, xrand.New(26))
	data, truth := spec.Sample(8000, xrand.New(27))
	const ranks = 5
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([]int, error) {
		local, _ := shardData(data, truth, ranks, c.Rank())
		_, labels, err := FitDistributed(c, local, Config{Seed: 28, Ring: true})
		return labels, err
	})
	if err != nil {
		t.Fatal(err)
	}
	var pred []int
	for _, r := range results {
		pred = append(pred, r...)
	}
	_, _, f1 := eval.PrecisionRecallF1(pred, truth)
	t.Logf("ring: f1=%.3f", f1)
	if f1 < 0.6 {
		t.Fatalf("ring f1 %.3f", f1)
	}
}

func TestFitDistributedEmptyRank(t *testing.T) {
	// One rank holds zero rows; the fit must still work.
	spec := synth.AutoMixture(2, 8, 6, 1, xrand.New(32))
	data, _ := spec.Sample(2000, xrand.New(33))
	err := mpi.Run(3, func(c *mpi.Comm) error {
		var local *linalg.Matrix
		if c.Rank() == 1 {
			local = linalg.NewMatrix(0, data.Cols)
		} else {
			half := data.Rows / 2
			lo := 0
			if c.Rank() == 2 {
				lo = half
			}
			hi := lo + half
			local = linalg.NewMatrix(hi-lo, data.Cols)
			copy(local.Data, data.Data[lo*data.Cols:hi*data.Cols])
		}
		model, labels, err := FitDistributed(c, local, Config{Seed: 34})
		if err != nil {
			return err
		}
		if len(labels) != local.Rows {
			t.Errorf("rank %d: %d labels for %d rows", c.Rank(), len(labels), local.Rows)
		}
		if model.K() < 1 {
			t.Errorf("rank %d: k=%d", c.Rank(), model.K())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFitDistributedAllEmpty(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, _, err := FitDistributed(c, linalg.NewMatrix(0, 4), Config{Seed: 1})
		if err == nil {
			t.Error("all-empty fit should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFitZeroColumnsFails(t *testing.T) {
	// A 5×0 input must be refused, not spin: without a column the
	// projection store has no row stride to advance by.
	data := linalg.NewMatrix(5, 0)
	distributed := func(ranks int) func(Config) error {
		return func(cfg Config) error {
			return mpi.Run(ranks, func(c *mpi.Comm) error {
				_, _, err := FitDistributed(c, data, cfg)
				return err
			})
		}
	}
	fits := map[string]func(Config) error{
		"Fit": func(cfg Config) error {
			_, _, err := Fit(data, cfg)
			return err
		},
		"FitDistributed/1": distributed(1),
		"FitDistributed/3": distributed(3),
	}
	for name, fit := range fits {
		for _, noProj := range []bool{false, true} {
			done := make(chan error, 1)
			go func() { done <- fit(Config{Seed: 1, NoProjection: noProj}) }()
			timer := time.NewTimer(10 * time.Second)
			select {
			case err := <-done:
				timer.Stop()
				if err == nil || !strings.Contains(err.Error(), "5x0") {
					t.Errorf("%s NoProjection=%v: got %v, want an error naming 5x0", name, noProj, err)
				}
			case <-timer.C:
				t.Fatalf("%s NoProjection=%v: no return within 10s", name, noProj)
			}
		}
	}
}

func TestCommunicationIsHistogramSized(t *testing.T) {
	// The paper's headline claim: only histograms move. Bytes sent per
	// rank must not grow with the number of local points.
	spec := synth.AutoMixture(4, 20, 6, 1, xrand.New(35))
	small, _ := spec.Sample(2000, xrand.New(36))
	big, _ := spec.Sample(16000, xrand.New(36))

	bytesFor := func(data *linalg.Matrix) int64 {
		stats, err := mpi.RunCollect(2, func(c *mpi.Comm) (int64, error) {
			local, _ := shardData(data, make([]int, data.Rows), 2, c.Rank())
			if _, _, err := FitDistributed(c, local, Config{Seed: 37}); err != nil {
				return 0, err
			}
			return c.Stats().Bytes(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats[0] + stats[1]
	}
	smallBytes := bytesFor(small)
	bigBytes := bytesFor(big)
	t.Logf("bytes: 2k pts %d, 16k pts %d", smallBytes, bigBytes)
	// 8× the data must cost far less than 8× the traffic (histogram depth
	// grows with log²M, so allow a modest factor).
	if bigBytes > smallBytes*3 {
		t.Fatalf("traffic grows with data: %d -> %d bytes", smallBytes, bigBytes)
	}
}

func TestEncodeDecodeTuples(t *testing.T) {
	layout := wideLayout()
	counts := func(order []int) *flatTable {
		tab, key := &flatTable{words: layout.words}, make([]uint64, layout.words)
		for _, i := range order {
			segs := make([]int, 30)
			segs[0], segs[29] = i, 7-i
			layout.pack(key, segs)
			tab.add(key, float64(i+1))
		}
		return tab
	}
	enc := tupleSection(counts([]int{0, 5, 2}), layout)
	got, err := readTupleSection(enc, layout)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tupleSection(got, layout), enc) {
		t.Fatalf("re-encoded %x, want %x", tupleSection(got, layout), enc)
	}
	if enc[0] != tupleTagString || got.len() != 3 {
		t.Fatalf("tag %q, %d keys", enc[0], got.len())
	}
	if _, err := readTupleSection([]byte{tupleTagString, 1}, layout); err == nil {
		t.Fatal("short payload must fail")
	}
	if _, err := readTupleSection(enc[:len(enc)-2], layout); err == nil {
		t.Fatal("truncated payload must fail")
	}
	if _, err := readTupleSection(append(enc, 0), layout); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	if _, err := readTupleSection(enc, sketchLayout(30)); err == nil {
		t.Fatal("u16 segment keys read as u32 components")
	}
	// deterministic encoding
	if !bytes.Equal(enc, tupleSection(counts([]int{2, 0, 5}), layout)) {
		t.Fatal("encoding must be order-independent")
	}
}

func TestFitDistributedSurfacesRankFailure(t *testing.T) {
	// A rank dying mid-fit must surface a stage-tagged RankFailedError on
	// the survivors — degrading gracefully instead of hanging the world.
	spec := synth.AutoMixture(3, 10, 6, 1, xrand.New(50))
	data, _ := spec.Sample(3000, xrand.New(51))

	comms, closeAll := mpi.NewWorld(3)
	defer closeAll()
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r == 1 {
				comms[r].Abort() // dies before contributing anything
				return
			}
			comms[r].SetRecvTimeout(10 * time.Second)
			local, _ := shardData(data, make([]int, data.Rows), 3, r)
			_, _, errs[r] = FitDistributed(comms[r], local, Config{Seed: 52})
			if errs[r] != nil {
				comms[r].Abort()
			}
		}(r)
	}
	wg.Wait()
	for _, r := range []int{0, 2} {
		if errs[r] == nil {
			t.Fatalf("rank %d: fit succeeded despite dead peer", r)
		}
		if _, ok := mpi.IsRankFailure(errs[r]); !ok {
			t.Fatalf("rank %d: got %v, want a RankFailedError", r, errs[r])
		}
		if !strings.Contains(errs[r].Error(), "core: ") {
			t.Fatalf("rank %d: error lacks pipeline-stage context: %v", r, errs[r])
		}
	}
}
