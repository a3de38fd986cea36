package core

import (
	"math"
	"testing"

	"keybin2/internal/xrand"
)

// TestBitIdenticalFlatTable drives a flatTable and a map[uint64]float64
// reference (with a slice recording insertion order) through the same
// seeded adds, decays and resets. After every step both must hold the same
// keys with bit-identical masses, and the table's cells must be in
// insertion order: a key dropped by decay and added again counts as new.
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
		want := map[uint64]uint64{}
		for k, n := range ref {
			if r := uint64(math.Round(n)); r > 0 {
				want[k] = r
			}
		}
		got := tab.rounded()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rounded keys, reference %d", seed, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("seed %d: key %#x rounds to %d, reference %d", seed, k, got[k], n)
			}
		}
	}
}
