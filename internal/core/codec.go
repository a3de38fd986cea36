package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"keybin2/internal/cluster"
	"keybin2/internal/histogram"
	"keybin2/internal/linalg"
	"keybin2/internal/partition"
	"keybin2/internal/quality"
)

// Model wire format (little endian):
//
//	magic "KB2M" | version u32
//	hasProjection u8 [rows u32, cols u32, data f64...]
//	set frame (histogram.Set.Encode)
//	ndims u32, per dim: collapsed u8, ncuts u32, cuts u32...
//	trial u32
//	nclusters u32, per cluster: mass u64, segments u16 × ndims, label u32 (v2)
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

type wireWriter struct{ buf []byte }

func (w *wireWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *wireWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("core: truncated model payload at offset %d", r.off)
		return false
	}
	return true
}

func (r *wireReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *wireReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// Encode serializes the model.
func (m *Model) Encode() []byte {
	w := &wireWriter{}
	w.buf = append(w.buf, modelMagic...)
	w.u32(modelVersion)
	if m.Projection != nil {
		w.u8(1)
		w.u32(uint32(m.Projection.Rows))
		w.u32(uint32(m.Projection.Cols))
		for _, v := range m.Projection.Data {
			w.f64(v)
		}
	} else {
		w.u8(0)
	}
	set := m.Set.Encode()
	w.u32(uint32(len(set)))
	w.buf = append(w.buf, set...)
	w.u32(uint32(len(m.Parts)))
	for j, p := range m.Parts {
		if m.Collapsed[j] {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(uint32(len(p.Cuts)))
		for _, c := range p.Cuts {
			w.u32(uint32(c))
		}
	}
	w.u32(uint32(m.Trial))
	w.u32(uint32(len(m.Clusters)))
	labels := m.installedLabels()
	for i, cl := range m.Clusters {
		w.u64(cl.Mass)
		for _, s := range cl.Segments {
			w.u32(uint32(s))
		}
		w.u32(uint32(labels[i]))
	}
	w.f64(m.Assessment.CH)
	w.f64(m.Assessment.Within)
	w.f64(m.Assessment.Between)
	w.u32(uint32(m.Assessment.Clusters))
	return w.buf
}

// DecodeModel parses a payload produced by Model.Encode. The decoded model
// labels points (Assign / AssignProjected) exactly like the original.
func DecodeModel(b []byte) (*Model, error) {
	if len(b) < 8 || string(b[:4]) != modelMagic {
		return nil, fmt.Errorf("core: not a model payload")
	}
	r := &wireReader{buf: b, off: 4}
	version := r.u32()
	if version != 1 && version != modelVersion {
		return nil, fmt.Errorf("core: model version %d unsupported", version)
	}
	m := &Model{}
	if r.u8() == 1 {
		rows, cols := int(r.u32()), int(r.u32())
		if rows < 0 || cols < 0 || rows*cols > 1<<28 {
			return nil, fmt.Errorf("core: absurd projection shape %dx%d", rows, cols)
		}
		if !r.need(8 * rows * cols) {
			return nil, r.err
		}
		m.Projection = linalg.NewMatrix(rows, cols)
		for i := range m.Projection.Data {
			m.Projection.Data[i] = r.f64()
		}
		m.packed = linalg.Pack(m.Projection)
	}
	setLen := int(r.u32())
	if !r.need(setLen) {
		return nil, r.err
	}
	set, err := histogram.DecodeSet(r.buf[r.off : r.off+setLen])
	if err != nil {
		return nil, err
	}
	r.off += setLen
	m.Set = set
	ndims := int(r.u32())
	if ndims != len(set.Dims) {
		return nil, fmt.Errorf("core: model has %d partitions for %d dimensions", ndims, len(set.Dims))
	}
	m.Parts = make([]partition.Result, ndims)
	m.Collapsed = make([]bool, ndims)
	for j := 0; j < ndims; j++ {
		m.Collapsed[j] = r.u8() == 1
		ncuts := int(r.u32())
		if ncuts < 0 || ncuts > set.Dims[j].Bins() {
			return nil, fmt.Errorf("core: dimension %d has %d cuts", j, ncuts)
		}
		cuts := make([]int, ncuts)
		for i := range cuts {
			cuts[i] = int(r.u32())
		}
		m.Parts[j] = partition.Result{Cuts: cuts}
	}
	m.Trial = int(r.u32())
	nclusters := int(r.u32())
	if nclusters < 0 || nclusters > 1<<20 {
		return nil, fmt.Errorf("core: absurd cluster count %d", nclusters)
	}
	m.Clusters = make([]quality.Cluster, nclusters)
	labels := identityLabels(nclusters)
	for i := 0; i < nclusters; i++ {
		mass := r.u64()
		segs := make([]int, ndims)
		for j := range segs {
			segs[j] = int(r.u32())
		}
		m.Clusters[i] = quality.Cluster{Segments: segs, Mass: mass}
		if version >= 2 {
			labels[i] = int(r.u32())
		}
	}
	// The wire format stores segments explicitly (it predates — and is
	// unaffected by — the packed-uint64 tuple keys); the codec, fused
	// labeling kernel, and tuple→label map are rebuilt from the decoded
	// partitions so checkpoints from before the packing change label
	// identically. Version 1 payloads carry no labels, so mass-order
	// identity ids stand in.
	m.codec = newTupleCodec(m.Parts, m.Collapsed)
	if m.codec.fits {
		m.lab = newLabeler(m.Set, m.Parts, m.Collapsed, m.codec)
	}
	m.installLabels(labels)
	m.Assessment.CH = r.f64()
	m.Assessment.Within = r.f64()
	m.Assessment.Between = r.f64()
	m.Assessment.Clusters = int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes in model payload", len(b)-r.off)
	}
	return m, nil
}

// AssignBatch labels every row of data under the model, using workers
// goroutines (0 = GOMAXPROCS). It is the bulk form of Assign.
func (m *Model) AssignBatch(data *linalg.Matrix, workers int) ([]int, error) {
	if m.Projection == nil && data.Cols != len(m.Set.Dims) {
		return nil, fmt.Errorf("core: assign batch: %d cols for %d model dims", data.Cols, len(m.Set.Dims))
	}
	proj, err := project(data, m.packed, workers)
	if err != nil {
		return nil, fmt.Errorf("core: assign batch: %w", err)
	}
	defer proj.release()
	labels := make([]int, proj.rows)
	forBlocks(proj, workers, func(_ *struct{}, lo int, rows []float64) {
		lab, labelOf := m.lab, m.labelOf
		for off := 0; off < len(rows); off += proj.cols {
			i, x := lo+off/proj.cols, rows[off:off+proj.cols]
			if !m.codec.fits {
				labels[i] = m.AssignProjected(x)
			} else if l, ok := labelOf[lab.key(x)]; ok {
				labels[i] = l // the allocation-free fast path, loads hoisted
			} else {
				labels[i] = cluster.Noise
			}
		}
	})
	return labels, nil
}
