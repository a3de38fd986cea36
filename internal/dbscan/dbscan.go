// Package dbscan implements the density-based baseline of the paper's
// Table 2: classic DBSCAN (Ester et al.) and the PDSDBSCAN-style parallel
// variant (Patwary et al.) that replaces the sequential region expansion
// with a disjoint-set union over core points, allowing the neighborhood
// computation and the merging to run concurrently.
//
// Neighborhood queries use a uniform grid with cell side eps when the
// dimensionality is small; at higher dimensionality the grid degenerates
// (3^d neighbor cells) and a blocked brute-force scan takes over — which is
// precisely why the paper's Table 2 shows PDSDBSCAN struggling at 1280
// dimensions.
package dbscan

import (
	"fmt"
	"math"
	"sync"

	"keybin2/internal/cluster"
	"keybin2/internal/linalg"
	"keybin2/internal/unionfind"
)

// Config tunes a DBSCAN fit.
type Config struct {
	// Eps is the neighborhood radius (required, > 0).
	Eps float64
	// MinPts is the core-point density threshold (required, >= 1),
	// counting the point itself as in the original formulation.
	MinPts int
	// Workers bounds goroutines in the parallel variant (0 = GOMAXPROCS).
	Workers int
	// MaxGridDims caps the dimensionality for which the grid index is
	// used (0 = 6). Above it, brute force.
	MaxGridDims int
}

func (c Config) validate() error {
	if c.Eps <= 0 {
		return fmt.Errorf("dbscan: eps %v", c.Eps)
	}
	if c.MinPts < 1 {
		return fmt.Errorf("dbscan: minPts %d", c.MinPts)
	}
	return nil
}

func (c Config) gridDims() int {
	if c.MaxGridDims <= 0 {
		return 6
	}
	return c.MaxGridDims
}

// index answers eps-neighborhood queries.
type index interface {
	// neighbors appends to dst the ids of points within eps of point i
	// (including i) and returns dst.
	neighbors(i int, dst []int) []int
}

// bruteIndex scans all points.
type bruteIndex struct {
	data *linalg.Matrix
	eps2 float64
}

func (b *bruteIndex) neighbors(i int, dst []int) []int {
	row := b.data.Row(i)
	for j := 0; j < b.data.Rows; j++ {
		if linalg.SqDist(row, b.data.Row(j)) <= b.eps2 {
			dst = append(dst, j)
		}
	}
	return dst
}

// gridIndex buckets points into cells of side eps; a query scans the 3^d
// adjacent cells.
type gridIndex struct {
	data  *linalg.Matrix
	eps   float64
	eps2  float64
	mins  []float64
	cells map[string][]int32
	dims  int
}

func newGridIndex(data *linalg.Matrix, eps float64) *gridIndex {
	g := &gridIndex{data: data, eps: eps, eps2: eps * eps, dims: data.Cols,
		cells: make(map[string][]int32), mins: make([]float64, data.Cols)}
	for j := 0; j < data.Cols; j++ {
		col := data.Col(j)
		g.mins[j], _ = linalg.MinMax(col)
	}
	buf := make([]int32, data.Cols)
	for i := 0; i < data.Rows; i++ {
		k := g.cellKey(data.Row(i), buf)
		g.cells[k] = append(g.cells[k], int32(i))
	}
	return g
}

func (g *gridIndex) cellKey(row []float64, buf []int32) string {
	for j, v := range row {
		buf[j] = int32(math.Floor((v - g.mins[j]) / g.eps))
	}
	b := make([]byte, 4*len(buf))
	for j, c := range buf {
		u := uint32(c)
		b[4*j] = byte(u)
		b[4*j+1] = byte(u >> 8)
		b[4*j+2] = byte(u >> 16)
		b[4*j+3] = byte(u >> 24)
	}
	return string(b)
}

func (g *gridIndex) neighbors(i int, dst []int) []int {
	row := g.data.Row(i)
	coord := make([]int32, g.dims)
	for j, v := range row {
		coord[j] = int32(math.Floor((v - g.mins[j]) / g.eps))
	}
	// Enumerate the 3^d neighbor cells with an odometer.
	off := make([]int32, g.dims)
	for j := range off {
		off[j] = -1
	}
	probe := make([]int32, g.dims)
	b := make([]byte, 4*g.dims)
	for {
		for j := range probe {
			probe[j] = coord[j] + off[j]
			u := uint32(probe[j])
			b[4*j] = byte(u)
			b[4*j+1] = byte(u >> 8)
			b[4*j+2] = byte(u >> 16)
			b[4*j+3] = byte(u >> 24)
		}
		for _, id := range g.cells[string(b)] {
			if linalg.SqDist(row, g.data.Row(int(id))) <= g.eps2 {
				dst = append(dst, int(id))
			}
		}
		// advance odometer
		j := 0
		for ; j < g.dims; j++ {
			off[j]++
			if off[j] <= 1 {
				break
			}
			off[j] = -1
		}
		if j == g.dims {
			break
		}
	}
	return dst
}

func buildIndex(data *linalg.Matrix, cfg Config) index {
	if data.Cols <= cfg.gridDims() {
		return newGridIndex(data, cfg.Eps)
	}
	return &bruteIndex{data: data, eps2: cfg.Eps * cfg.Eps}
}

// Fit runs classic sequential DBSCAN and returns per-point labels
// (cluster.Noise for noise).
func Fit(data *linalg.Matrix, cfg Config) ([]int, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	idx := buildIndex(data, cfg)
	const unvisited = -2
	labels := make([]int, data.Rows)
	for i := range labels {
		labels[i] = unvisited
	}
	next := 0
	var frontier []int
	var scratch []int
	for i := 0; i < data.Rows; i++ {
		if labels[i] != unvisited {
			continue
		}
		scratch = idx.neighbors(i, scratch[:0])
		if len(scratch) < cfg.MinPts {
			labels[i] = cluster.Noise
			continue
		}
		c := next
		next++
		labels[i] = c
		frontier = append(frontier[:0], scratch...)
		for len(frontier) > 0 {
			p := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if labels[p] == cluster.Noise {
				labels[p] = c // border point reached from a core
			}
			if labels[p] != unvisited {
				continue
			}
			labels[p] = c
			scratch = idx.neighbors(p, scratch[:0])
			if len(scratch) >= cfg.MinPts {
				frontier = append(frontier, scratch...)
			}
		}
	}
	return labels, nil
}

// FitParallel runs the PDSDBSCAN algorithm: neighbor lists and core-point
// detection are computed in parallel blocks; core-core edges are merged
// through a disjoint-set forest; border points attach to any core neighbor.
// The result is equivalent to Fit up to the usual DBSCAN border-point
// tie-breaking.
func FitParallel(data *linalg.Matrix, cfg Config) ([]int, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := data.Rows
	workers := linalg.Workers(cfg.Workers)
	if workers > m {
		workers = 1
	}
	idx := buildIndex(data, cfg)

	core := make([]bool, m)
	attach := make([]int32, m) // border → a core neighbor (or -1)
	for i := range attach {
		attach[i] = -1
	}
	dsu := unionfind.NewConcurrent(m)

	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var scratch []int
			for i := lo; i < hi; i++ {
				scratch = idx.neighbors(i, scratch[:0])
				if len(scratch) >= cfg.MinPts {
					core[i] = true
				}
				// Record one candidate core attachment for border points;
				// resolved after core flags are final.
				if len(scratch) > 0 {
					attach[i] = int32(scratch[0])
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	// Union pass: connect each core point to its core neighbors; attach
	// border points to their first core neighbor.
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var scratch []int
			for i := lo; i < hi; i++ {
				scratch = idx.neighbors(i, scratch[:0])
				if core[i] {
					for _, j := range scratch {
						if core[j] {
							dsu.Union(i, j)
						}
					}
					continue
				}
				attach[i] = -1
				for _, j := range scratch {
					if core[j] {
						attach[i] = int32(j)
						break
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	// Label pass: core points take their set representative's dense id;
	// border points inherit from their attachment; the rest are noise.
	snapshot := dsu.Snapshot()
	labels := make([]int, m)
	ids := make(map[int]int)
	nextLabel := 0
	for i := 0; i < m; i++ {
		if !core[i] {
			continue
		}
		r := snapshot.Find(i)
		id, ok := ids[r]
		if !ok {
			id = nextLabel
			ids[r] = id
			nextLabel++
		}
		labels[i] = id
	}
	for i := 0; i < m; i++ {
		if core[i] {
			continue
		}
		if a := attach[i]; a >= 0 && core[a] {
			labels[i] = labels[a]
		} else {
			labels[i] = cluster.Noise
		}
	}
	return labels, nil
}
