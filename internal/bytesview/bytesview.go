// Package bytesview provides zero-copy reinterpretations of numeric
// slices as byte slices for the byte-oriented transport layer. All
// fabrics move bytes within a single process, so no cross-machine
// representation issues arise; the views just avoid a copy on the hot
// path.
package bytesview

import "unsafe"

// F64 views a float64 slice as bytes, sharing memory.
func F64(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
}

// U64 views a uint64 slice as bytes, sharing memory.
func U64(xs []uint64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
}

// C128 views a complex128 slice as bytes, sharing memory.
func C128(xs []complex128) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*16)
}
