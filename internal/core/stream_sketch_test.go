package core

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"testing"

	"keybin2/internal/wire"
	"keybin2/internal/xrand"
)

// tkey is a flatTable key of up to two words as a map key; a one-word
// table uses tkey[0] and leaves tkey[1] zero.
type tkey [2]uint64

// TestBitIdenticalFlatTable drives a flatTable and a map reference (with a
// slice recording insertion order) through the same seeded adds, decays
// and resets, at one-word and two-word keys. After every step both must
// hold the same keys with bit-identical masses, and the table's cells must
// be in insertion order: a key dropped by decay and added again counts as
// new. The table's counting use follows (checkCountTable).
func TestBitIdenticalFlatTable(t *testing.T) {
	const negligible = 1e-6 // flatTable.decay's threshold
	for _, words := range []int{1, 2} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := xrand.New(seed)
			tab := flatTable{words: words}
			ref := map[tkey]float64{}
			var order []tkey
			keySpace := []int{8, 300, 5000, 1 << 20}[seed-1]
			largest := 0
			for step := 0; step < 20000; step++ {
				op := rng.Intn(1000)
				switch {
				case op < 990:
					// Keys spread over all 64 bits and crowd the low ones, so
					// probes collide and wrap around the index; a two-word
					// key repeats one word in the other half as often.
					var key tkey
					key[0] = uint64(rng.Intn(keySpace))
					if rng.Intn(4) == 0 {
						key[0] = key[0]<<40 | key[0]
					}
					if words == 2 {
						key[1] = uint64(rng.Intn(3))
						if rng.Intn(4) == 0 {
							key[0], key[1] = key[1], key[0]
						}
					}
					n := []float64{1, 0.3, 1e-7, float64(rng.Intn(9))}[rng.Intn(4)]
					if _, ok := ref[key]; !ok {
						order = append(order, key)
					}
					ref[key] += n
					tab.add(key[:words], n)
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
					tab.reset(words)
				}
				largest = max(largest, tab.len())
				if op < 990 && step%50 != 0 {
					continue
				}
				if tab.len() != len(ref) {
					t.Fatalf("W=%d seed %d step %d: %d cells, reference %d keys", words, seed, step, tab.len(), len(ref))
				}
				for c := range tab.len() {
					m := tab.mass(c)
					if key := keyOf(&tab, c); key != order[c] {
						t.Fatalf("W=%d seed %d step %d: cell %d is key %x, inserted %d-th was %x", words, seed, step, c, key, c, order[c])
					} else if math.Float64bits(m) != math.Float64bits(ref[key]) {
						t.Fatalf("W=%d seed %d step %d: key %x mass %v, reference %v", words, seed, step, key, m, ref[key])
					}
				}
			}
			if want := min(keySpace, 500); largest < want {
				t.Fatalf("W=%d seed %d: the table never held more than %d cells, want %d", words, seed, largest, want)
			}
			checkCountTable(t, seed, &tab, ref, rng)
		}
	}
}

// keyOf is cell c's key as a map key.
func keyOf(tab *flatTable, c int) tkey {
	var k tkey
	copy(k[:], tab.key(c))
	return k
}

// checkCountTable holds the counting use of a flatTable — whole masses
// below 2^53 — to a map reference: rounding the sketch table tab
// (reference ref), the suppression filter, merge, minus, find, ascending
// order, and at one word the fold's encoding.
func checkCountTable(t *testing.T, seed int64, tab *flatTable, ref map[tkey]float64, rng *xrand.Stream) {
	t.Helper()
	words := tab.words
	same := func(step string, got *flatTable, want map[tkey]uint64) {
		t.Helper()
		if got.len() != len(want) {
			t.Fatalf("W=%d seed %d %s: %d cells, reference %d keys", words, seed, step, got.len(), len(want))
		}
		for c := range got.len() {
			m := got.mass(c)
			key := keyOf(got, c)
			if n, ok := want[key]; !ok || math.Float64bits(m) != math.Float64bits(float64(n)) {
				t.Fatalf("W=%d seed %d %s: key %x mass %v, reference %d", words, seed, step, key, m, n)
			}
			if at, ok := got.find(key[:words]); !ok || at != c {
				t.Fatalf("W=%d seed %d %s: find(%x) = %d, %v; the key is cell %d", words, seed, step, key, at, ok, c)
			}
		}
	}
	rounded := map[tkey]uint64{}
	for k, n := range ref {
		if r := uint64(math.Round(n)); r > 0 {
			rounded[k] = r
		}
	}
	counts := tab.clone()
	counts.round()
	same("round", counts, rounded)
	var kept []tkey
	for c := range tab.len() {
		if _, ok := rounded[keyOf(tab, c)]; ok {
			kept = append(kept, keyOf(tab, c))
		}
	}
	for c := range counts.len() {
		if key := keyOf(counts, c); key != kept[c] {
			t.Fatalf("W=%d seed %d round: cell %d is key %x, insertion order says %x", words, seed, c, key, kept[c])
		}
	}

	// A second count table of whole masses up to 2^40 (so the sums stay
	// exact), over keys that overlap the first.
	more, moreRef := &flatTable{words: words}, map[tkey]uint64{}
	for range 3000 {
		key := tkey{uint64(rng.Intn(4000))}
		n := uint64(rng.Intn(1 << 20))
		if rng.Intn(8) == 0 {
			n <<= 20
		}
		more.add(key[:words], float64(n))
		moreRef[key] += n
	}
	sum, sumRef := counts.clone(), maps.Clone(rounded)
	for k, n := range moreRef {
		sumRef[k] += n
	}
	sum, err := mergeCounts(sum, more)
	if err != nil {
		t.Fatal(err)
	}
	same("merge", sum, sumRef)
	// sum grew from counts by more: minus gives more back, less its
	// zero-mass keys.
	grownRef := maps.Clone(moreRef)
	maps.DeleteFunc(grownRef, func(_ tkey, n uint64) bool { return n == 0 })
	same("minus", sum.minus(counts), grownRef)

	k := float64(1 + rng.Intn(6))
	sum.filter(func(m float64) (float64, bool) { return m, m >= k })
	maps.DeleteFunc(sumRef, func(_ tkey, n uint64) bool { return float64(n) < k })
	same("suppression filter", sum, sumRef)

	sortedRef := make([]tkey, 0, len(sumRef))
	for k := range sumRef {
		sortedRef = append(sortedRef, k)
	}
	slices.SortFunc(sortedRef, func(a, b tkey) int { return slices.Compare(a[:words], b[:words]) })
	for i, c := range sum.sorted() {
		if keyOf(sum, c) != sortedRef[i] {
			t.Fatalf("W=%d seed %d: sorted cell %d is key %x, want %x", words, seed, i, keyOf(sum, c), sortedRef[i])
		}
	}
	if words > 1 {
		return
	}
	w := &wire.Writer{}
	w.U8(tupleTagPacked)
	w.U32(uint32(len(sumRef)))
	for _, key := range sortedRef {
		w.U64(key[0])
		w.U64(sumRef[key])
	}
	if !bytes.Equal(tupleSection(sum, keyLayout{}), w.Buf) {
		t.Fatalf("seed %d: the encoded count table is not the reference's keys in ascending order", seed)
	}
}
