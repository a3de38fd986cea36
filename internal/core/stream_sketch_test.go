package core

import (
	"bytes"
	"maps"
	"math"
	"testing"

	"keybin2/internal/xrand"
)

// TestBitIdenticalFlatTable drives a flatTable and a map[uint64]float64
// reference (with a slice recording insertion order) through the same
// seeded adds, decays and resets. After every step both must hold the same
// keys with bit-identical masses, and the table's cells must be in
// insertion order: a key dropped by decay and added again counts as new.
// The table's counting use follows (checkCountTable).
func TestBitIdenticalFlatTable(t *testing.T) {
	const negligible = 1e-6 // keys.Counter.Decay's threshold
	for seed := int64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		var tab flatTable
		ref := map[uint64]float64{}
		var order []uint64
		keySpace := []int{8, 300, 5000, 1 << 20}[seed-1]
		largest := 0
		for step := 0; step < 20000; step++ {
			op := rng.Intn(1000)
			switch {
			case op < 990:
				// Keys spread over all 64 bits and crowd the low ones, so
				// probes collide and wrap around the index.
				key := uint64(rng.Intn(keySpace))
				if rng.Intn(4) == 0 {
					key = key<<40 | key
				}
				n := []float64{1, 0.3, 1e-7, float64(rng.Intn(9))}[rng.Intn(4)]
				if _, ok := ref[key]; !ok {
					order = append(order, key)
				}
				ref[key] += n
				tab.add(key, n)
			case op < 999:
				factor := []float64{0.9, 0.5, 1e-3, 0}[rng.Intn(4)]
				kept := order[:0]
				for _, k := range order {
					if nn := ref[k] * factor; nn < negligible {
						delete(ref, k)
					} else {
						ref[k] = nn
						kept = append(kept, k)
					}
				}
				order = kept
				tab.decay(factor)
			default:
				clear(ref)
				order = order[:0]
				tab.reset()
			}
			largest = max(largest, len(tab.cells))
			if op < 990 && step%50 != 0 {
				continue
			}
			if len(tab.cells) != len(ref) {
				t.Fatalf("seed %d step %d: %d cells, reference %d keys", seed, step, len(tab.cells), len(ref))
			}
			for i, c := range tab.cells {
				if c.key != order[i] {
					t.Fatalf("seed %d step %d: cell %d is key %#x, inserted %d-th was %#x", seed, step, i, c.key, i, order[i])
				}
				if math.Float64bits(c.mass) != math.Float64bits(ref[c.key]) {
					t.Fatalf("seed %d step %d: key %#x mass %v, reference %v", seed, step, c.key, c.mass, ref[c.key])
				}
			}
		}
		if want := min(keySpace, 500); largest < want {
			t.Fatalf("seed %d: the table never held more than %d cells, want %d", seed, largest, want)
		}
		checkCountTable(t, seed, &tab, ref, rng)
	}
}

// checkCountTable holds the counting use of a flatTable — whole masses
// below 2^53 — to a map[uint64]uint64 reference: rounding the sketch table
// tab (reference ref), dropBelow, merge, minus, and the fold's encode
// order.
func checkCountTable(t *testing.T, seed int64, tab *flatTable, ref map[uint64]float64, rng *xrand.Stream) {
	t.Helper()
	same := func(step string, got *flatTable, want map[uint64]uint64) {
		t.Helper()
		if len(got.cells) != len(want) {
			t.Fatalf("seed %d %s: %d cells, reference %d keys", seed, step, len(got.cells), len(want))
		}
		for _, c := range got.cells {
			if n, ok := want[c.key]; !ok || math.Float64bits(c.mass) != math.Float64bits(float64(n)) {
				t.Fatalf("seed %d %s: key %#x mass %v, reference %d", seed, step, c.key, c.mass, n)
			}
		}
	}
	rounded := map[uint64]uint64{}
	for k, n := range ref {
		if r := uint64(math.Round(n)); r > 0 {
			rounded[k] = r
		}
	}
	counts := tab.clone()
	counts.round()
	same("round", counts, rounded)
	kept := counts.cells[:0:0]
	for _, c := range tab.cells {
		if _, ok := rounded[c.key]; ok {
			kept = append(kept, c)
		}
	}
	for i, c := range counts.cells {
		if c.key != kept[i].key {
			t.Fatalf("seed %d round: cell %d is key %#x, insertion order says %#x", seed, i, c.key, kept[i].key)
		}
	}

	// A second count table of whole masses up to 2^40 (so the sums stay
	// exact), over keys that overlap the first.
	more, moreRef := &flatTable{}, map[uint64]uint64{}
	for range 3000 {
		key := uint64(rng.Intn(4000))
		n := uint64(rng.Intn(1 << 20))
		if rng.Intn(8) == 0 {
			n <<= 20
		}
		more.add(key, float64(n))
		moreRef[key] += n
	}
	sum, sumRef := tupleCounts{u: counts.clone()}, maps.Clone(rounded)
	for k, n := range moreRef {
		sumRef[k] += n
	}
	if _, err := mergeTupleCounts(sum, tupleCounts{u: more}); err != nil {
		t.Fatal(err)
	}
	same("merge", sum.u, sumRef)
	// sum grew from counts by more: minus gives more back, less its
	// zero-mass keys.
	grownRef := maps.Clone(moreRef)
	maps.DeleteFunc(grownRef, func(_, n uint64) bool { return n == 0 })
	same("minus", sum.minus(tupleCounts{u: counts}).u, grownRef)

	k := uint64(1 + rng.Intn(6))
	tupleCounts{u: sum.u}.dropBelow(k)
	maps.DeleteFunc(sumRef, func(_, n uint64) bool { return n < k })
	same("dropBelow", sum.u, sumRef)

	w := &wireWriter{}
	w.u8(tupleTagPacked)
	w.u32(uint32(len(sumRef)))
	for _, key := range sortedKeys(sumRef) {
		w.u64(key)
		w.u64(sumRef[key])
	}
	if !bytes.Equal(tupleSection(sum), w.buf) {
		t.Fatalf("seed %d: the encoded count table is not the reference's keys in ascending order", seed)
	}
}
