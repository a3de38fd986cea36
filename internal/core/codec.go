package core

import (
	"fmt"
	"unsafe"

	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/quality"
	"keybin2/internal/wire"
)

// Model wire format (little endian):
//
//	magic "KB2M" | version u32
//	hasProjection u8 [rows u32, cols u32, data f64...]
//	set frame (histogram.Set.Encode)
//	ndims u32, per dim: collapsed u8, ncuts u32, cuts u32...
//	trial u32
//	nclusters u32, per cluster: mass u64, segments u32 × ndims, label u32 (v2)
//	assessment: ch f64, within f64, between f64, clusters u32
//
// Encoding a model lets in-situ deployments checkpoint a fitted clustering
// and ship it to late-joining workers, which can then label their local
// points without refitting.
//
// Version 2 adds the per-cluster installed label. Stream-published models
// carry remapped ids from label stabilization (ids follow clusters across
// refits instead of mass order), and a decoded model must reproduce them —
// otherwise labels silently change across a daemon checkpoint/restart or
// between a daemon's /label and a client-side fetched model. Version 1
// payloads are still decoded, with mass-order identity labels.

const modelMagic = "KB2M"
const modelVersion = 2

// Encode serializes the model.
func (m *Model) Encode() []byte {
	w := &wire.Writer{}
	w.Str(modelMagic)
	w.U32(modelVersion)
	if m.Projection != nil {
		w.U8(1)
		w.U32(uint32(m.Projection.Rows))
		w.U32(uint32(m.Projection.Cols))
		w.F64s(m.Projection.Data)
	} else {
		w.U8(0)
	}
	w.Frame(m.Set.Encode())
	w.U32(uint32(len(m.Parts)))
	for j, p := range m.Parts {
		if m.Collapsed[j] {
			w.U8(1)
		} else {
			w.U8(0)
		}
		w.U32(uint32(len(p.Cuts)))
		for _, c := range p.Cuts {
			w.U32(uint32(c))
		}
	}
	w.U32(uint32(m.Trial))
	w.U32(uint32(len(m.Clusters)))
	labels := m.installedLabels()
	for i, cl := range m.Clusters {
		w.U64(cl.Mass)
		for _, s := range cl.Segments {
			w.U32(uint32(s))
		}
		w.U32(uint32(labels[i]))
	}
	w.F64(m.Assessment.CH)
	w.F64(m.Assessment.Within)
	w.F64(m.Assessment.Between)
	w.U32(uint32(m.Assessment.Clusters))
	return w.Buf
}

// DecodeModel parses a payload produced by Model.Encode. The decoded model
// labels points (Assign / AssignBatch) exactly like the original. Every
// cluster segment must lie below its dimension's segment count: a wider one
// would spill into its neighbours' fields of the packed tuple key.
func DecodeModel(b []byte) (*Model, error) {
	r := wire.NewReader("core: model payload", b)
	if string(r.Bytes(4)) != modelMagic {
		return nil, fmt.Errorf("core: not a model payload")
	}
	version := r.U32()
	if r.Err() == nil && version != 1 && version != modelVersion {
		return nil, fmt.Errorf("core: model version %d unsupported", version)
	}
	m := &Model{}
	if r.U8() == 1 {
		// Columns first: once cols·8 bytes fit, rows of that many do too.
		rows, cols := r.U32(), r.U32()
		c := r.Count(cols, 8)
		n := r.Count(rows, 8*c)
		if r.Err() != nil {
			return nil, r.Err()
		}
		m.Projection = linalg.NewMatrix(n, c)
		r.F64s(m.Projection.Data)
		m.packed = linalg.Pack(m.Projection)
	}
	frame := r.Frame()
	if r.Err() != nil {
		return nil, r.Err()
	}
	set, err := histogram.DecodeSet(frame)
	if err != nil {
		return nil, err
	}
	m.Set = set
	// Either would panic AssignBatch: a projected row holds one value per
	// histogram, and the bin kernel stores a bin in a uint16.
	if m.Projection != nil && m.Projection.Cols != len(set.Dims) {
		return nil, fmt.Errorf("core: model projects to %d columns for %d histograms", m.Projection.Cols, len(set.Dims))
	}
	if depth := set.Dims[0].Depth; depth > maxDepth {
		return nil, fmt.Errorf("core: model histograms of depth %d, deeper than %d", depth, maxDepth)
	}
	ndims := int(r.U32())
	if r.Err() == nil && ndims != len(set.Dims) {
		return nil, fmt.Errorf("core: model has %d partitions for %d dimensions", ndims, len(set.Dims))
	}
	m.Parts = make([]partition.Result, len(set.Dims))
	m.Collapsed = make([]bool, len(set.Dims))
	for j := range m.Parts {
		m.Collapsed[j] = r.U8() == 1
		ncuts := r.Count(r.U32(), 4)
		if ncuts > set.Dims[j].Bins() {
			return nil, fmt.Errorf("core: dimension %d has %d cuts", j, ncuts)
		}
		cuts := make([]int, ncuts)
		for i := range cuts {
			cuts[i] = int(r.U32())
		}
		m.Parts[j] = partition.Result{Cuts: cuts}
	}
	m.Trial = int(r.U32())
	each := 8 + 4*len(m.Parts)
	if version >= 2 {
		each += 4
	}
	nclusters := r.Count(r.U32(), each)
	if r.Err() != nil {
		return nil, r.Err()
	}
	m.Clusters = make([]quality.Cluster, nclusters)
	labels := identityLabels(nclusters)
	for i := range m.Clusters {
		mass := r.U64()
		segs := make([]int, len(m.Parts))
		for j := range segs {
			segs[j] = int(r.U32())
			if segs[j] >= m.Parts[j].Segments() {
				return nil, fmt.Errorf("core: cluster %d segment %d in dimension %d of %d segments", i, segs[j], j, m.Parts[j].Segments())
			}
		}
		m.Clusters[i] = quality.Cluster{Segments: segs, Mass: mass}
		if version >= 2 {
			labels[i] = int(r.U32())
		}
	}
	m.Assessment.CH = r.F64()
	m.Assessment.Within = r.F64()
	m.Assessment.Between = r.F64()
	m.Assessment.Clusters = int(r.U32())
	if err := r.Done(); err != nil {
		return nil, err
	}
	// The wire format stores segments explicitly (it predates — and is
	// unaffected by — the packed tuple keys); the labeling kernel and the
	// tuple→label map are rebuilt from the decoded partitions, so
	// checkpoints from before the packing change label identically.
	// Version 1 payloads carry no labels, so mass-order identity ids stand
	// in.
	m.equip()
	m.installLabels(labels)
	return m, nil
}

// AssignBatch labels every row of data under the model, using workers
// goroutines (0 = GOMAXPROCS). It is the bulk form of Assign. A worker
// takes up to blockRows rows at a time through two blocks from blockPool:
// it projects the rows into one and bins them there in place (a
// NoProjection model bins the caller's rows into it), and keys them in
// the other.
func (m *Model) AssignBatch(data *linalg.Matrix, workers int) ([]int, error) {
	cols, dims := len(m.Set.Dims), len(m.Set.Dims)
	if m.Projection != nil {
		dims = m.Projection.Rows
	}
	if data.Cols != dims {
		return nil, fmt.Errorf("core: assign batch: %d cols for %d model dims", data.Cols, dims)
	}
	labels, words := make([]int, data.Rows), m.lab.words()
	type scratch struct{ block, keys *[]float64 }
	used := forBlocks(viewStore(data), workers, func(s *scratch, lo int, raw []float64) {
		if s.block == nil {
			s.block, s.keys = pooledBuf(blockRows*cols), pooledBuf(blockRows*max(cols, words))
		}
		n, x := min(blockRows, data.Rows-lo), raw
		if m.packed != nil {
			x = (*s.block)[:n*cols]
			src, dst := linalg.Matrix{Rows: n, Cols: data.Cols, Data: raw}, linalg.Matrix{Rows: n, Cols: cols, Data: x}
			// MulPacked only fails on a shape mismatch, ruled out above.
			_ = linalg.MulPacked(&dst, &src, m.packed, nil, nil)
		}
		// BinRows lets the bins start at the projection's first byte.
		bins := unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(*s.block))), n*cols)
		keys := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(*s.keys))), n*words)
		m.labelProjected(labels[lo:lo+n], keys, bins, x)
	})
	for _, s := range used {
		if s.block != nil {
			blockPool.Put(s.block)
			blockPool.Put(s.keys)
		}
	}
	return labels, nil
}
