// Package histogram implements the hierarchical binning histograms at the
// heart of KeyBin: per-dimension binary binning trees whose finest level has
// 2^depth bins. A point's bin index at the finest level encodes its whole
// hierarchical key for that dimension — the bin at any coarser depth d is
// the index shifted right by (depth−d), i.e. the key prefix.
//
// Histograms are the only information KeyBin2 moves between ranks: they are
// orders of magnitude smaller than the data and cannot be inverted to
// recover points, which is what makes the algorithm suited to distributed
// and privacy-sensitive settings.
package histogram

import (
	"fmt"
	"math"
)

// Hist is a one-dimensional hierarchical binning histogram over the range
// [Min, Max] with 2^Depth finest-level bins. Counts are stored at the
// finest level only; coarser levels are exact aggregations (see LevelCounts).
type Hist struct {
	Min, Max float64
	Depth    int
	Counts   []uint64
	Total    uint64

	// invW caches 1/BinWidth so Bin is one multiply instead of a division
	// per call — Bin sits inside the per-point·per-dimension labeling loop.
	// Set by New and restored by Clone/DecodeSet; zero-value Hists fall
	// back to computing it on the fly.
	invW float64
}

// MaxDepth bounds the binning tree so bin counts stay cheap to ship.
const MaxDepth = 20

// New creates an empty histogram. Depth is clamped to [1, MaxDepth]; an
// inverted or zero-width range is widened to a tiny symmetric interval so
// degenerate dimensions still bin deterministically.
func New(min, max float64, depth int) *Hist {
	if depth < 1 {
		depth = 1
	}
	if depth > MaxDepth {
		depth = MaxDepth
	}
	if !(max > min) {
		mid := min
		min, max = mid-0.5, mid+0.5
	}
	nbins := 1 << depth
	return &Hist{
		Min: min, Max: max, Depth: depth,
		Counts: make([]uint64, nbins),
		invW:   float64(nbins) / (max - min),
	}
}

// Bins returns the number of finest-level bins (2^Depth).
func (h *Hist) Bins() int { return len(h.Counts) }

// InvWidth returns the factor Bin multiplies by, 2^Depth over the range's
// width. Vector bin kernels (linalg.BinRows) and the labeler take it from
// here, so their bins cannot drift from Bin's.
func (h *Hist) InvWidth() float64 {
	if h.invW == 0 { // Hist built as a struct literal rather than via New
		return float64(len(h.Counts)) / (h.Max - h.Min)
	}
	return h.invW
}

// Bin returns the finest-level bin index for x, clamped into range.
// Out-of-range values land in the first or last bin; this matches streaming
// settings where the global range was fixed from an earlier sample.
func (h *Hist) Bin(x float64) int {
	v := (x - h.Min) * h.InvWidth()
	if v >= float64(len(h.Counts)) {
		return len(h.Counts) - 1
	}
	if v >= 0 {
		return int(v)
	}
	return 0 // negative or NaN
}

// Add bins x and increments its finest-level count.
func (h *Hist) Add(x float64) {
	h.Counts[h.Bin(x)]++
	h.Total++
}

// AddCount adds n observations to the bin containing x.
func (h *Hist) AddCount(x float64, n uint64) {
	h.Counts[h.Bin(x)] += n
	h.Total += n
}

// BinAtDepth returns the bin index of finest-level bin b at the coarser
// depth d (1 <= d <= Depth): the hierarchical key prefix.
func (h *Hist) BinAtDepth(b, d int) int {
	if d >= h.Depth {
		return b
	}
	return b >> uint(h.Depth-d)
}

// LevelCounts returns the counts aggregated to depth d (2^d bins). d is
// clamped to [1, Depth]. The finest level is returned without copying.
func (h *Hist) LevelCounts(d int) []uint64 {
	if d >= h.Depth {
		return h.Counts
	}
	if d < 1 {
		d = 1
	}
	out := make([]uint64, 1<<d)
	shift := uint(h.Depth - d)
	for b, c := range h.Counts {
		out[b>>shift] += c
	}
	return out
}

// BinWidth returns the finest-level bin width.
func (h *Hist) BinWidth() float64 { return (h.Max - h.Min) / float64(len(h.Counts)) }

// Center returns the center coordinate of finest-level bin b.
func (h *Hist) Center(b int) float64 {
	return h.Min + (float64(b)+0.5)*h.BinWidth()
}

// Centers returns the centers of all finest-level bins.
func (h *Hist) Centers() []float64 {
	out := make([]float64, len(h.Counts))
	for b := range out {
		out[b] = h.Center(b)
	}
	return out
}

// CentersAt returns the bin centers at depth d.
func (h *Hist) CentersAt(d int) []float64 {
	if d > h.Depth {
		d = h.Depth
	}
	if d < 1 {
		d = 1
	}
	n := 1 << d
	w := (h.Max - h.Min) / float64(n)
	out := make([]float64, n)
	for b := range out {
		out[b] = h.Min + (float64(b)+0.5)*w
	}
	return out
}

// Densities returns the finest-level counts normalized to sum to 1
// (all-zero histograms return all zeros).
func (h *Hist) Densities() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	inv := 1 / float64(h.Total)
	for b, c := range h.Counts {
		out[b] = float64(c) * inv
	}
	return out
}

// Merge adds other's counts into h. The histograms must be congruent (same
// range and depth) — distributed ranks guarantee this by agreeing on global
// ranges before binning.
func (h *Hist) Merge(other *Hist) error {
	if h.Depth != other.Depth || h.Min != other.Min || h.Max != other.Max {
		return fmt.Errorf("histogram: merge of incongruent histograms ([%g,%g]@%d vs [%g,%g]@%d)",
			h.Min, h.Max, h.Depth, other.Min, other.Max, other.Depth)
	}
	for b, c := range other.Counts {
		h.Counts[b] += c
	}
	h.Total += other.Total
	return nil
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	out := &Hist{Min: h.Min, Max: h.Max, Depth: h.Depth, Total: h.Total, invW: h.invW}
	out.Counts = append([]uint64(nil), h.Counts...)
	return out
}

// Reset zeroes all counts.
func (h *Hist) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Total = 0
}

// Mode returns the index of the fullest finest-level bin.
func (h *Hist) Mode() int {
	best := 0
	for b, c := range h.Counts {
		if c > h.Counts[best] {
			best = b
		}
	}
	return best
}

// Decay scales every count by factor in [0,1), rounding down, and returns
// the remaining total. Streaming deployments call this periodically so old
// regimes fade instead of accumulating forever (exponential forgetting).
func (h *Hist) Decay(factor float64) uint64 {
	if factor < 0 {
		factor = 0
	}
	if factor >= 1 {
		return h.Total
	}
	var total uint64
	for b, c := range h.Counts {
		nc := uint64(float64(c) * factor)
		h.Counts[b] = nc
		total += nc
	}
	h.Total = total
	return total
}

// Suppress zeroes bins with fewer than k observations and returns the
// number of suppressed observations. KeyBin's privacy argument is that
// histograms cannot be inverted to points; suppression strengthens it to a
// k-anonymity guarantee — every communicated nonzero bin aggregates at
// least k points, so no bin isolates a small group.
func (h *Hist) Suppress(k uint64) (suppressed uint64) {
	if k < 2 {
		return 0
	}
	for b, c := range h.Counts {
		if c > 0 && c < k {
			suppressed += c
			h.Counts[b] = 0
		}
	}
	h.Total -= suppressed
	return suppressed
}

// PercentileBin returns the finest-level bin containing the p-th percentile
// (p in [0,100]) of the binned mass. The paper's global center c uses the
// 50th percentile bin of each dimension.
func (h *Hist) PercentileBin(p float64) int {
	if h.Total == 0 {
		return len(h.Counts) / 2
	}
	target := uint64(math.Ceil(p / 100 * float64(h.Total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range h.Counts {
		cum += c
		if cum >= target {
			return b
		}
	}
	return len(h.Counts) - 1
}
