package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// fitDigest hashes everything a fit hands back: the labels and the encoded
// model.
func fitDigest(model *Model, labels []int) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(l)))
		h.Write(b[:])
	}
	h.Write(model.Encode())
	return hex.EncodeToString(h.Sum(nil))
}

// TestProjectMatchesMul checks the block store against one plain matrix
// product, bit for bit, at row counts around the block boundary — with
// recycled blocks, which hold another projection's values until overwritten.
func TestProjectMatchesMul(t *testing.T) {
	rng := xrand.New(3)
	joined := linalg.NewMatrix(12, 10)
	for i := range joined.Data {
		joined.Data[i] = rng.Norm()
	}
	for _, rows := range []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 3*blockRows + 17, 2 * blockRows} {
		data := linalg.NewMatrix(rows, 12)
		for i := range data.Data {
			data.Data[i] = rng.Norm()*50 + 100
		}
		want, err := linalg.Mul(nil, data, joined)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			proj, err := project(data, linalg.Pack(joined), workers)
			if err != nil {
				t.Fatal(err)
			}
			if proj.rows != rows || proj.cols != 10 {
				t.Fatalf("rows %d: store is %dx%d", rows, proj.rows, proj.cols)
			}
			mins, maxs := emptyRanges(10)
			seen := 0
			for b, blk := range proj.blocks {
				if len(blk) == 0 || len(blk)%10 != 0 || (b < len(proj.blocks)-1 && len(blk) != blockRows*10) {
					t.Fatalf("rows %d: block %d has %d floats", rows, b, len(blk))
				}
				for i, v := range blk {
					if w := want.Data[seen*10+i]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("rows %d workers %d: block %d float %d is %v, product has %v", rows, workers, b, i, v, w)
					}
				}
				linalg.WidenRanges(mins, maxs, blk)
				seen += len(blk) / 10
			}
			if seen != rows {
				t.Fatalf("rows %d: blocks hold %d rows", rows, seen)
			}
			if !reflect.DeepEqual(proj.mins, mins) || !reflect.DeepEqual(proj.maxs, maxs) {
				t.Fatalf("rows %d workers %d: ranges %v..%v, want %v..%v", rows, workers, proj.mins, proj.maxs, mins, maxs)
			}
			if rows == 0 && (!math.IsInf(proj.mins[0], 1) || !math.IsInf(proj.maxs[0], -1)) {
				t.Fatalf("empty store has range %v..%v, want +Inf..-Inf", proj.mins[0], proj.maxs[0])
			}
			proj.release()
		}
	}
	if _, err := project(linalg.NewMatrix(5, 11), linalg.Pack(joined), 1); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}

// TestForBlocksVisitsEachBlockOnce drives the shared iterator with more
// workers than blocks, fewer, and one.
func TestForBlocksVisitsEachBlockOnce(t *testing.T) {
	data := linalg.NewMatrix(5*blockRows+3, 2)
	proj := viewOf(data)
	for _, workers := range []int{1, 2, 4, 64} {
		visits := make([]atomic.Int32, len(proj.blocks))
		accs := forBlocks(proj, workers, func(rows *int, lo int, blk []float64) {
			if lo%blockRows != 0 || &blk[0] != &data.Data[lo*2] {
				t.Errorf("block at row %d does not start there", lo)
			}
			visits[lo/blockRows].Add(1)
			*rows += len(blk) / 2
		})
		total := 0
		for _, n := range accs {
			total += n
		}
		if total != data.Rows || len(accs) > min(workers, len(proj.blocks)) {
			t.Fatalf("workers %d: %d accumulators saw %d rows of %d", workers, len(accs), total, data.Rows)
		}
		for b := range visits {
			if n := visits[b].Load(); n != 1 {
				t.Fatalf("workers %d: block %d visited %d times", workers, b, n)
			}
		}
	}
}

// TestConcurrentFitsDoNotShareBlocks runs several serial fits and a
// distributed fit at once, on different inputs, over and over: every one
// must reproduce what it yields alone, so no fit ever reads a block another
// one is writing or has recycled. Run under -race -count=10 in CI.
func TestConcurrentFitsDoNotShareBlocks(t *testing.T) {
	type job struct {
		data *linalg.Matrix
		cfg  Config
		want string
	}
	sample := func(rows, dims int, seed int64) *linalg.Matrix {
		data, _ := synth.AutoMixture(4, dims, 6, 1, xrand.New(seed)).Sample(rows, xrand.New(seed+1))
		return data
	}
	// Same projected width for all but one, so they trade blocks; the
	// wider one makes blocks the others then find too small or too large.
	jobs := []*job{
		{data: sample(2*blockRows+100, 16, 40), cfg: Config{Seed: 1, Trials: 2}},
		{data: sample(3*blockRows, 16, 50), cfg: Config{Seed: 2, Trials: 2}},
		{data: sample(blockRows+1, 16, 60), cfg: Config{Seed: 3, Trials: 2}},
		{data: sample(2*blockRows+5, 24, 70), cfg: Config{Seed: 4, Trials: 3}},
	}
	for _, j := range jobs {
		model, labels, err := Fit(j.data, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		j.want = fitDigest(model, labels)
	}
	const ranks = 2
	distributed := func() ([]string, error) {
		return mpi.RunCollect(ranks, func(c *mpi.Comm) (string, error) {
			local, _ := shardData(jobs[1].data, make([]int, jobs[1].data.Rows), ranks, c.Rank())
			model, labels, err := FitDistributed(c, local, jobs[1].cfg)
			if err != nil {
				return "", err
			}
			return fitDigest(model, labels), nil
		})
	}
	distWant, err := distributed()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				model, labels, err := Fit(j.data, j.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fitDigest(model, labels); got != j.want {
					t.Errorf("fit of %dx%d changed beside other fits: %s, alone %s", j.data.Rows, j.data.Cols, got, j.want)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := distributed()
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, distWant) {
				t.Errorf("distributed fit changed beside other fits: %v, alone %v", got, distWant)
			}
		}()
	}
	wg.Wait()
}

// TestEmptyRankLeavesRangesAlone is the regression test for an idle rank
// reporting (0, 0) as its range: with data far from the origin that widened
// every global range to include 0 and moved every bin. A rank without rows
// must change nothing: same model bytes, same labels.
func TestEmptyRankLeavesRangesAlone(t *testing.T) {
	data, _ := synth.AutoMixture(3, 12, 6, 1, xrand.New(80)).Sample(4000, xrand.New(81))
	for i := range data.Data {
		data.Data[i] += 100
	}
	half := data.Rows / 2
	shard := func(lo, hi int) *linalg.Matrix {
		return &linalg.Matrix{Rows: hi - lo, Cols: data.Cols, Data: data.Data[lo*data.Cols : hi*data.Cols]}
	}
	type result struct {
		model  []byte
		labels []int
	}
	run := func(shards []*linalg.Matrix) []result {
		t.Helper()
		out, err := mpi.RunCollect(len(shards), func(c *mpi.Comm) (result, error) {
			model, labels, err := FitDistributed(c, shards[c.Rank()], Config{Seed: 82})
			if err != nil {
				return result{}, err
			}
			return result{model.Encode(), labels}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	two := run([]*linalg.Matrix{shard(0, half), shard(half, data.Rows)})
	three := run([]*linalg.Matrix{shard(0, half), shard(0, 0), shard(half, data.Rows)})
	if len(three[1].labels) != 0 {
		t.Fatalf("empty rank got %d labels", len(three[1].labels))
	}
	for i, r := range []int{0, 2} {
		if !bytes.Equal(two[i].model, three[r].model) {
			t.Errorf("rank %d: model bytes differ once an empty rank joins", r)
		}
		if !reflect.DeepEqual(two[i].labels, three[r].labels) {
			t.Errorf("rank %d: labels differ once an empty rank joins", r)
		}
	}
}
