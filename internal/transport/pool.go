package transport

import (
	"math/bits"
	"sync"
	"unsafe"
)

// payloadPools recycles packet payload buffers. Class k holds buffers
// of capacity exactly 1<<k, stored as a pointer to their first byte (a
// pointer-shaped value, so Put and Get do not allocate). A payload is
// always fully overwritten by the copy that fills it, so recycled
// buffers are never cleared; the GC empties the pools.
var payloadPools [bits.UintSize]sync.Pool

// clonePayload returns a pooled copy of data for a packet in flight, or
// nil for an empty payload: a zero-length slice may still carry its
// owner's capacity, which must not cross the fabric and be Released.
func clonePayload(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	buf := getPayload(len(data))
	copy(buf, data)
	return buf
}

// getPayload returns a buffer of length n > 0 with unspecified contents.
func getPayload(n int) []byte {
	k := bits.Len(uint(n - 1))
	if p, _ := payloadPools[k].Get().(*byte); p != nil {
		return unsafe.Slice(p, 1<<k)[:n]
	}
	return make([]byte, n, 1<<k)
}

// Release returns the payload of a received Packet to the fabric's
// buffer pool. The receiving rank owns Packet.Data from Recv until it
// calls Release, and must not touch the slice afterwards. Anything the
// pool cannot have handed out (nil, or a capacity that is not a power of
// two) is ignored, so releasing a payload from a foreign Endpoint
// implementation is harmless.
func Release(data []byte) {
	c := cap(data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	payloadPools[bits.TrailingZeros(uint(c))].Put(unsafe.SliceData(data))
}
