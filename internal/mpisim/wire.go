package mpisim

import (
	"encoding/binary"
	"math"
)

// Wire encoding helpers. Payloads travel as []byte so the cost model can
// charge for their real size; these helpers give the fixed little-endian
// encodings used across the repository. UnpackFloat64sInto also decodes
// into a caller-provided slice, for receivers that place values in place.

// PackFloat64s encodes xs as little-endian IEEE 754 doubles.
func PackFloat64s(xs []float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// UnpackFloat64s decodes the encoding of PackFloat64s. Trailing partial
// words are a protocol error and panic.
func UnpackFloat64s(b []byte) []float64 {
	return UnpackFloat64sInto(make([]float64, 0, len(b)/8), b)
}

// UnpackFloat64sInto appends the decoded values to dst and returns the
// extended slice; pass scratch[:0] to reuse a buffer across decodes. It
// panics on trailing partial words like UnpackFloat64s.
func UnpackFloat64sInto(dst []float64, b []byte) []float64 {
	if len(b)%8 != 0 {
		panic("mpisim: float64 payload length not a multiple of 8")
	}
	for ; len(b) >= 8; b = b[8:] {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return dst
}

// PackInts encodes xs as little-endian int64s.
func PackInts(xs []int) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
	}
	return b
}

// UnpackInts decodes the encoding of PackInts. Trailing partial words are a
// protocol error and panic.
func UnpackInts(b []byte) []int {
	if len(b)%8 != 0 {
		panic("mpisim: int payload length not a multiple of 8")
	}
	xs := make([]int, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		xs = append(xs, int(int64(binary.LittleEndian.Uint64(b))))
	}
	return xs
}
