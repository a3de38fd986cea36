package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire encoding: little-endian fixed-width values with no header. Collective
// payload sizes are implied by the element width; mixed payloads (histogram
// metadata) use the explicit length-prefixed helpers.

// EncodeFloat64s serializes v.
func EncodeFloat64s(v []float64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// DecodeFloat64s deserializes a payload produced by EncodeFloat64s.
func DecodeFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// EncodeUint64s serializes v.
func EncodeUint64s(v []uint64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], x)
	}
	return buf
}

// DecodeUint64s deserializes a payload produced by EncodeUint64s.
func DecodeUint64s(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: uint64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, nil
}

// AppendBytesFrame appends a length-prefixed byte frame to dst.
func AppendBytesFrame(dst, frame []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	dst = append(dst, hdr[:]...)
	return append(dst, frame...)
}

// SplitBytesFrames splits a concatenation of length-prefixed frames.
func SplitBytesFrames(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("mpi: truncated frame header")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, fmt.Errorf("mpi: frame length %d exceeds remaining %d", n, len(b))
		}
		out = append(out, b[:n:n])
		b = b[n:]
	}
	return out, nil
}
