package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"keybin2/internal/linalg"
)

// blockRows is the height of every row block of a projected store. At the
// 18–45 projected columns fits use, one block is 150–370 KB: it is projected
// and range-scanned while it sits in L2, and it is the unit workers draw.
const blockRows = 1024

// blockPool holds the row blocks of finished fits. Every block of a given
// column count has the same size, whatever the row count of the fit that
// made it, so one 250k-row fit and two concurrent 125k-row ranks recycle the
// same buffers; the pool never holds more than the fits in flight gave back,
// and the GC empties it when fitting stops. An entry too small for the
// asking fit (a narrower projection used it last) is dropped.
var blockPool sync.Pool // of *[]float64

// pooledBuf takes a block of at least n floats from blockPool, or makes one.
func pooledBuf(n int) *[]float64 {
	buf, _ := blockPool.Get().(*[]float64)
	if buf == nil || cap(*buf) < n {
		fresh := make([]float64, n)
		buf = &fresh
	}
	return buf
}

// projected is what every pass of a fit reads: the rows×cols projected
// points, cut into blocks of blockRows rows (the last one shorter), plus the
// per-column range of all rows. A store made by project owns its blocks
// (pooled ones until release); one made with no projection is a view of the
// caller's matrix.
type projected struct {
	rows, cols int
	blocks     [][]float64  // blocks[b] holds rows [b·blockRows, …), row-major; nil once binned
	pooled     []*[]float64 // buffers to hand back; nil for a view
	view       bool         // blocks are the caller's: never written
	// mins/maxs are the exact per-column extrema; (+Inf, −Inf), the
	// identities of min and max, when there are no rows.
	mins, maxs []float64
	// bins[b]: block b's bin indices in blocks[b]'s layout, set by binAll
	// over the front quarter of block b's own floats (a view's apart).
	bins [][]uint16
}

// project multiplies data through joined into a block store and records the
// column ranges of each block: on AVX-512 hardware the kernel widens them
// from its registers before it stores a row, elsewhere a scan follows each
// block's product while the block is still in cache. A nil joined means no
// projection: the store is a view of data.
func project(data *linalg.Matrix, joined *linalg.Packed, workers int) (*projected, error) {
	p := viewStore(data)
	if joined != nil {
		if data.Cols != joined.Rows() {
			return nil, fmt.Errorf("core: project %dx%d through %dx%d: %w", data.Rows, data.Cols, joined.Rows(), joined.Cols(), linalg.ErrShape)
		}
		p.cols, p.view = joined.Cols(), false
		p.pooled = make([]*[]float64, len(p.blocks))
		for b := range p.blocks {
			buf := pooledBuf(blockRows * p.cols)
			p.pooled[b] = buf
			p.blocks[b] = (*buf)[:(min((b+1)*blockRows, p.rows)-b*blockRows)*p.cols]
		}
	}

	type blockRange struct{ mins, maxs []float64 }
	accs := forBlocks(p, workers, func(acc *blockRange, lo int, rows []float64) {
		if acc.mins == nil {
			acc.mins, acc.maxs = emptyRanges(p.cols)
		}
		if joined == nil {
			linalg.WidenRanges(acc.mins, acc.maxs, rows)
			return
		}
		n := len(rows) / p.cols
		src := linalg.Matrix{Rows: n, Cols: data.Cols, Data: data.Data[lo*data.Cols : (lo+n)*data.Cols]}
		dst := linalg.Matrix{Rows: n, Cols: p.cols, Data: rows}
		// MulPacked only fails on a shape mismatch, ruled out above.
		_ = linalg.MulPacked(&dst, &src, joined, acc.mins, acc.maxs)
	})
	p.mins, p.maxs = emptyRanges(p.cols)
	for _, acc := range accs {
		for j := range acc.mins {
			p.mins[j] = min(p.mins[j], acc.mins[j])
			p.maxs[j] = max(p.maxs[j], acc.maxs[j])
		}
	}
	// +0 and -0 compare equal, so which of them a zero extremum keeps would
	// depend on which worker saw which block; settle it on +0.
	for j := range p.mins {
		if p.mins[j] == 0 {
			p.mins[j] = 0
		}
		if p.maxs[j] == 0 {
			p.maxs[j] = 0
		}
	}
	return p, nil
}

// viewStore is a store of data's own rows, cut into blocks, with no column
// ranges: a view, which nothing writes.
func viewStore(data *linalg.Matrix) *projected {
	p := &projected{rows: data.Rows, cols: data.Cols, view: true}
	p.blocks = make([][]float64, (p.rows+blockRows-1)/blockRows)
	for b := range p.blocks {
		p.blocks[b] = data.Data[b*blockRows*p.cols : min((b+1)*blockRows, p.rows)*p.cols]
	}
	return p
}

// emptyRanges returns per-column ranges holding the identities of min and
// max, (+Inf, -Inf): what a rank with no rows contributes to the global
// range consolidation.
func emptyRanges(cols int) (mins, maxs []float64) {
	mins, maxs = make([]float64, cols), make([]float64, cols)
	for j := range mins {
		mins[j], maxs[j] = math.Inf(1), math.Inf(-1)
	}
	return mins, maxs
}

// release hands the store's blocks back to the pool. The store must not be
// read afterwards; models and labels never alias it.
func (p *projected) release() {
	for _, buf := range p.pooled {
		blockPool.Put(buf)
	}
	p.pooled, p.blocks, p.bins = nil, nil, nil
}

// forBlocks calls fn once for every row block of p, from up to workers
// goroutines (0 = GOMAXPROCS) that draw block indices off one atomic counter,
// so a slow core takes fewer blocks instead of holding up a static half. fn
// gets the accumulator of the goroutine running it (zero until fn fills it),
// the index of the block's first row, and the block's rows (nil once binned).
// The accumulators are returned for the caller to merge; which blocks fed
// which accumulator varies from run to run, so the merge must not depend on
// it — integer sums and exact min/max here.
func forBlocks[T any](p *projected, workers int, fn func(acc *T, lo int, rows []float64)) []T {
	nb := len(p.blocks)
	workers = min(linalg.Workers(workers), nb)
	accs := make([]T, workers)
	if workers <= 1 {
		for b, rows := range p.blocks {
			fn(&accs[0], b*blockRows, rows)
		}
		return accs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range accs {
		go func(acc *T) {
			defer wg.Done()
			for b := int(next.Add(1)) - 1; b < nb; b = int(next.Add(1)) - 1 {
				fn(acc, b*blockRows, p.blocks[b])
			}
		}(&accs[w])
	}
	wg.Wait()
	return accs
}
