package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// TestStoredBinKeyIsLabelerKey is the property the fit's count and label
// passes stand on: a point's bin as binAll stores it is Hist.Bin of its
// float, the key ORed from its stored bins is the key of the row binned
// on its own (a one-row BinRows, as a query is), and that key holds the
// segments Result.SegmentOf gives its bins.
// Rows mix NaN, ±Inf, ±0, every bin edge and the floats either side of it,
// each range's min and max, values far out of range and uniform draws;
// dimensions mix collapsed ones and zero-width ranges (which histogram.New
// widens).
func TestStoredBinKeyIsLabelerKey(t *testing.T) {
	rng := xrand.New(71)
	for trial := 0; trial < 24; trial++ {
		dims := 1 + rng.Intn(8)
		depth := 4 + rng.Intn(6)
		mins, maxs := make([]float64, dims), make([]float64, dims)
		for j := range mins {
			mins[j] = (rng.Float64() - 0.5) * 200
			maxs[j] = mins[j] + rng.Float64()*50
			if rng.Intn(6) == 0 {
				maxs[j] = mins[j]
			}
		}
		set, err := histogram.NewSet(mins, maxs, depth)
		if err != nil {
			t.Fatal(err)
		}
		pool := make([][]float64, dims) // per dimension: the values rows draw from
		for j, h := range set.Dims {
			pool[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
				h.Min, h.Max, h.Min - 1e6, h.Max + 1e6, -math.MaxFloat64, math.MaxFloat64}
			for b := 0; b <= h.Bins(); b++ {
				edge := h.Min + float64(b)*h.BinWidth()
				pool[j] = append(pool[j], edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
			}
		}
		rows := 2*blockRows + 37
		data := linalg.NewMatrix(rows, dims)
		for i := 0; i < rows; i++ {
			for j, h := range set.Dims {
				v := h.Min + rng.Float64()*(h.Max-h.Min)
				if rng.Intn(10) < 7 {
					v = pool[j][rng.Intn(len(pool[j]))]
				}
				data.Set(i, j, v)
			}
		}
		view := viewOf(data)
		binAll(view, []*histogram.Set{set}, 3)
		parts, collapsed := randomParts(rng, dims, set.Dims[0].Bins(), 6, 0.3)
		lab := binLabeler(tupleLayout(parts, collapsed), set.Dims[0].Bins(), segmentField(parts, collapsed))
		got, ref, want := make([]uint64, lab.words()), make([]uint64, lab.words()), make([]int, dims)
		for i := 0; i < rows; i++ {
			x, b := data.Row(i), view.bins[i/blockRows][i%blockRows*dims:][:dims]
			for j, h := range set.Dims {
				if int(b[j]) != h.Bin(x[j]) {
					t.Fatalf("trial %d row %d dim %d: stored bin %d, Hist.Bin(%v) = %d", trial, i, j, b[j], x[j], h.Bin(x[j]))
				}
			}
			lab.binKey(got, b)
			lab.binKey(ref, rowBins(set, x))
			if !slices.Equal(got, ref) {
				t.Fatalf("trial %d row %d %v: key from stored bins %#x, from the row binned alone %#x", trial, i, x, got, ref)
			}
			for j, h := range set.Dims {
				want[j] = 0
				if !collapsed[j] {
					want[j] = parts[j].SegmentOf(h.Bin(x[j]))
				}
			}
			if segs := lab.layout.unpack(got); !reflect.DeepEqual(segs, want) {
				t.Fatalf("trial %d row %d %v: segments in the stored-bin key %v, SegmentOf %v", trial, i, x, segs, want)
			}
		}
	}
}

// TestFitWorkersDoNotChangeResult: Config.Workers bounds a fit's passes and
// changes nothing else. 1, 2 and 4 workers give the model bytes and labels
// of the default, on one rank and on two, with five trials; which blocks
// land in which worker's histogram clones and tuple tables varies with the
// count and from run to run, so this also checks their merges are
// order-free.
func TestFitWorkersDoNotChangeResult(t *testing.T) {
	data, _ := synth.AutoMixture(4, 24, 6, 1, xrand.New(90)).Sample(6*blockRows+100, xrand.New(91))
	fit := func(ranks, workers int) ([]byte, []int) {
		t.Helper()
		type result struct {
			model  []byte
			labels []int
		}
		out, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (result, error) {
			local, _ := shardData(data, make([]int, data.Rows), ranks, c.Rank())
			model, labels, err := FitDistributed(c, local, Config{Seed: 92, Trials: 5, Workers: workers})
			if err != nil {
				return result{}, err
			}
			return result{model.Encode(), labels}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var labels []int
		for _, r := range out {
			labels = append(labels, r.labels...)
		}
		return out[0].model, labels
	}
	for _, ranks := range []int{1, 2} {
		wantModel, wantLabels := fit(ranks, 0)
		for _, workers := range []int{1, 2, 4} {
			model, labels := fit(ranks, workers)
			if !bytes.Equal(model, wantModel) {
				t.Errorf("ranks %d workers %d: model bytes differ from the default's", ranks, workers)
			}
			if !reflect.DeepEqual(labels, wantLabels) {
				t.Errorf("ranks %d workers %d: labels differ from the default's", ranks, workers)
			}
		}
	}
}

// TestFitRefusesDepthOver16: bin indices are stored as uint16, so a fit
// refuses a deeper tree up front, naming the depth, and takes depth 16.
func TestFitRefusesDepthOver16(t *testing.T) {
	data, _ := synth.AutoMixture(2, 8, 6, 1, xrand.New(93)).Sample(500, xrand.New(94))
	for _, depth := range []int{17, 20, 21} {
		_, _, err := Fit(data, Config{Seed: 95, Depth: depth})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("depth %d ", depth)) {
			t.Errorf("depth %d: got %v, want an error naming the depth", depth, err)
		}
	}
	model, _, err := Fit(data, Config{Seed: 95, Depth: 16, Trials: 1, TargetDims: 2})
	if err != nil {
		t.Fatalf("depth 16: %v", err)
	}
	if got := model.Set.Dims[0].Bins(); got != 1<<16 {
		t.Fatalf("depth 16: %d bins", got)
	}
}
