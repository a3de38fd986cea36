package mpi

import "keybin2/internal/wire"

// Wire encoding: little-endian fixed-width values with no header. Collective
// payload sizes are implied by the element width; mixed payloads (histogram
// metadata) use the explicit length-prefixed helpers.

// EncodeFloat64s serializes v.
func EncodeFloat64s(v []float64) []byte {
	w := wire.Writer{}
	w.F64s(v)
	return w.Buf
}

// DecodeFloat64s deserializes a payload produced by EncodeFloat64s.
func DecodeFloat64s(b []byte) ([]float64, error) {
	r := wire.NewReader("mpi: float64 payload", b)
	out := make([]float64, len(b)/8)
	r.F64s(out)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeUint64s serializes v.
func EncodeUint64s(v []uint64) []byte {
	w := wire.Writer{}
	w.U64s(v)
	return w.Buf
}

// DecodeUint64s deserializes a payload produced by EncodeUint64s.
func DecodeUint64s(b []byte) ([]uint64, error) {
	r := wire.NewReader("mpi: uint64 payload", b)
	out := make([]uint64, len(b)/8)
	r.U64s(out)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendBytesFrame appends a length-prefixed byte frame to dst.
func AppendBytesFrame(dst, frame []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.Frame(frame)
	return w.Buf
}

// SplitBytesFrames splits a concatenation of length-prefixed frames.
func SplitBytesFrames(b []byte) ([][]byte, error) {
	r := wire.NewReader("mpi: frames", b)
	var out [][]byte
	for r.Left() > 0 {
		f := r.Frame()
		if err := r.Err(); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
