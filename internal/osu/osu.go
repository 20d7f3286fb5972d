// Package osu reimplements the OSU micro-benchmark suite's measurement
// methodology on top of the internal/mp runtime: ping-pong latency,
// window-based streaming bandwidth, bidirectional bandwidth, multi-pair
// aggregates, and collective latency. The loop structure (warmup phase,
// timed phase, window acknowledgements, iteration scaling for large
// messages) follows the original benchmarks so the measured curves have
// the same shape and semantics.
//
// All benchmark functions are called from inside an mp.Run body. The
// pair benchmarks (Latency, Bandwidth, BiBandwidth) involve only their
// pair, as osu_latency does: every other rank returns nil at once and
// sends nothing. MultiPairBandwidth and CollectiveLatency involve every
// rank and synchronize the world around their timed loops.
package osu

import (
	"fmt"

	"repro/internal/mp"
)

// LargeThreshold is the message size above which iteration counts are
// scaled down, as in the OSU suite.
const LargeThreshold = 8192

// Options configures the point-to-point benchmarks.
type Options struct {
	// Sizes lists the message sizes in bytes; nil means DefaultSizes().
	Sizes []int
	// Warmup and Iters are the per-size loop counts (defaults 10/100;
	// both divided by 10 above LargeThreshold).
	Warmup, Iters int
	// Window is the number of in-flight messages per bandwidth
	// iteration (default 64, the OSU default).
	Window int
	// PairA and PairB are the ranks forming the measured pair
	// (default 0 and 1). Placement policy decides whether that pair is
	// intra-socket, intra-node or inter-node.
	PairA, PairB int
}

func (o Options) normalize() Options {
	if o.Sizes == nil {
		o.Sizes = DefaultSizes()
	}
	if o.Warmup <= 0 {
		o.Warmup = 10
	}
	if o.Iters <= 0 {
		o.Iters = 100
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.PairB == 0 && o.PairA == 0 {
		o.PairB = 1
	}
	return o
}

// loops returns (warmup, iters) scaled for a message size.
func (o Options) loops(size int) (int, int) {
	if size > LargeThreshold {
		w, it := o.Warmup/10, o.Iters/10
		if w < 1 {
			w = 1
		}
		if it < 1 {
			it = 1
		}
		return w, it
	}
	return o.Warmup, o.Iters
}

// DefaultSizes returns the OSU size sweep: 0 plus powers of two from 1
// byte to 4 MiB.
func DefaultSizes() []int {
	sizes := []int{0}
	for s := 1; s <= 4<<20; s <<= 1 {
		sizes = append(sizes, s)
	}
	return sizes
}

// Sample is one point of a benchmark curve.
type Sample struct {
	Size  int     // message size in bytes
	Value float64 // seconds for latency curves, bytes/s for bandwidth
}

const benchTag = 7001

// Latency runs the OSU ping-pong latency benchmark between PairA and
// PairB, returning one sample per size on PairA: half round-trip time in
// seconds. Every rank may call it; every other rank returns nil at once.
func Latency(c *mp.Comm, opts Options) ([]Sample, error) {
	opts = opts.normalize()
	if err := checkPair(c, opts); err != nil {
		return nil, err
	}
	me, peer := pairRole(c, opts)
	if me < 0 {
		return nil, nil
	}
	var out []Sample
	maxBuf := payloadBuf(opts.Sizes)
	for _, size := range opts.Sizes {
		warm, iters := opts.loops(size)
		buf := maxBuf[:size]
		var t0 float64
		for i := 0; i < warm+iters; i++ {
			if i == warm {
				t0 = c.Time()
			}
			if me == 0 {
				if err := c.Send(peer, benchTag, buf); err != nil {
					return nil, err
				}
				if _, err := c.Recv(peer, benchTag, buf); err != nil {
					return nil, err
				}
			} else {
				if _, err := c.Recv(peer, benchTag, buf); err != nil {
					return nil, err
				}
				if err := c.Send(peer, benchTag, buf); err != nil {
					return nil, err
				}
			}
		}
		if me == 0 {
			out = append(out, Sample{Size: size, Value: (c.Time() - t0) / float64(2*iters)})
		}
	}
	return out, nil
}

// Bandwidth runs the OSU streaming bandwidth benchmark: PairA posts a
// window of nonblocking sends, PairB a window of receives followed by a
// 4-byte acknowledgement. Returns bytes/s per size on PairA and nil on
// every other rank.
func Bandwidth(c *mp.Comm, opts Options) ([]Sample, error) {
	opts = opts.normalize()
	if err := checkPair(c, opts); err != nil {
		return nil, err
	}
	me, peer := pairRole(c, opts)
	if me < 0 {
		return nil, nil
	}
	var out []Sample
	ack := make([]byte, 4)
	maxBuf := payloadBuf(opts.Sizes)
	reqs := make([]*mp.Request, opts.Window)
	for _, size := range opts.Sizes {
		if size == 0 {
			continue // bandwidth of empty messages is undefined
		}
		warm, iters := opts.loops(size)
		buf := maxBuf[:size]
		var t0 float64
		for i := 0; i < warm+iters; i++ {
			if i == warm {
				t0 = c.Time()
			}
			if me == 0 {
				for w := range reqs {
					r, err := c.Isend(peer, benchTag, buf)
					if err != nil {
						return nil, err
					}
					reqs[w] = r
				}
				if err := c.WaitAll(reqs...); err != nil {
					return nil, err
				}
				if _, err := c.Recv(peer, benchTag+1, ack); err != nil {
					return nil, err
				}
			} else {
				for w := range reqs {
					r, err := c.Irecv(peer, benchTag, buf)
					if err != nil {
						return nil, err
					}
					reqs[w] = r
				}
				if err := c.WaitAll(reqs...); err != nil {
					return nil, err
				}
				if err := c.Send(peer, benchTag+1, ack); err != nil {
					return nil, err
				}
			}
		}
		if me == 0 {
			moved := float64(size) * float64(opts.Window) * float64(iters)
			out = append(out, Sample{Size: size, Value: moved / (c.Time() - t0)})
		}
	}
	return out, nil
}

// BiBandwidth measures bidirectional bandwidth: both ends stream a
// window concurrently; the reported value counts traffic in both
// directions, as osu_bibw does. Like Bandwidth, it returns the curve on
// PairA and nil on every other rank.
func BiBandwidth(c *mp.Comm, opts Options) ([]Sample, error) {
	opts = opts.normalize()
	if err := checkPair(c, opts); err != nil {
		return nil, err
	}
	me, peer := pairRole(c, opts)
	if me < 0 {
		return nil, nil
	}
	var out []Sample
	maxSend, maxRecv := payloadBuf(opts.Sizes), payloadBuf(opts.Sizes)
	sreqs := make([]*mp.Request, opts.Window)
	rreqs := make([]*mp.Request, opts.Window)
	for _, size := range opts.Sizes {
		if size == 0 {
			continue
		}
		warm, iters := opts.loops(size)
		sbuf, rbuf := maxSend[:size], maxRecv[:size]
		var t0 float64
		for i := 0; i < warm+iters; i++ {
			if i == warm {
				t0 = c.Time()
			}
			for w := range rreqs {
				r, err := c.Irecv(peer, benchTag, rbuf)
				if err != nil {
					return nil, err
				}
				rreqs[w] = r
			}
			for w := range sreqs {
				r, err := c.Isend(peer, benchTag, sbuf)
				if err != nil {
					return nil, err
				}
				sreqs[w] = r
			}
			if err := c.WaitAll(sreqs...); err != nil {
				return nil, err
			}
			if err := c.WaitAll(rreqs...); err != nil {
				return nil, err
			}
		}
		if me == 0 {
			moved := 2 * float64(size) * float64(opts.Window) * float64(iters)
			out = append(out, Sample{Size: size, Value: moved / (c.Time() - t0)})
		}
	}
	return out, nil
}

// MultiPairBandwidth measures aggregate bandwidth over `pairs`
// concurrent (sender, receiver) pairs: sender i is rank i, receiver i is
// rank i+pairs. Returns aggregate bytes/s per size. All ranks call it;
// requires size >= 2*pairs.
func MultiPairBandwidth(c *mp.Comm, pairs int, opts Options) ([]Sample, error) {
	opts = opts.normalize()
	if pairs < 1 || 2*pairs > c.Size() {
		return nil, fmt.Errorf("osu: %d pairs need %d ranks, have %d", pairs, 2*pairs, c.Size())
	}
	var out []Sample
	ack := make([]byte, 4)
	sender := c.Rank() < pairs
	receiver := c.Rank() >= pairs && c.Rank() < 2*pairs
	var peer int
	if sender {
		peer = c.Rank() + pairs
	} else if receiver {
		peer = c.Rank() - pairs
	}
	var maxBuf []byte // stays nil on ranks that only synchronize
	if sender || receiver {
		maxBuf = payloadBuf(opts.Sizes)
	}
	reqs := make([]*mp.Request, opts.Window)
	for _, size := range opts.Sizes {
		if size == 0 {
			continue
		}
		warm, iters := opts.loops(size)
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		var t0 float64
		if sender || receiver {
			buf := maxBuf[:size]
			for i := 0; i < warm+iters; i++ {
				if i == warm {
					t0 = c.Time()
				}
				if sender {
					for w := 0; w < opts.Window; w++ {
						r, err := c.Isend(peer, benchTag, buf)
						if err != nil {
							return nil, err
						}
						reqs[w] = r
					}
					if err := c.WaitAll(reqs...); err != nil {
						return nil, err
					}
					if _, err := c.Recv(peer, benchTag+1, ack); err != nil {
						return nil, err
					}
				} else {
					for w := 0; w < opts.Window; w++ {
						r, err := c.Irecv(peer, benchTag, buf)
						if err != nil {
							return nil, err
						}
						reqs[w] = r
					}
					if err := c.WaitAll(reqs...); err != nil {
						return nil, err
					}
					if err := c.Send(peer, benchTag+1, ack); err != nil {
						return nil, err
					}
				}
			}
		}
		elapsed := c.Time() - t0
		// Aggregate: sum of per-sender rates. Senders contribute their
		// rate; everyone else contributes 0.
		var rate float64
		if sender && elapsed > 0 {
			rate = float64(size) * float64(opts.Window) * float64(iters) / elapsed
		}
		total, err := c.AllreduceScalar(mp.OpSum, rate)
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{Size: size, Value: total})
	}
	return out, nil
}

// CollectiveLatency times `iters` invocations of coll (after `warmup`)
// across all ranks and returns the maximum per-iteration time over
// ranks, the metric the OSU collective benchmarks report.
func CollectiveLatency(c *mp.Comm, warmup, iters int, coll func() error) (float64, error) {
	if iters < 1 {
		return 0, fmt.Errorf("osu: iters must be >= 1")
	}
	for i := 0; i < warmup; i++ {
		if err := coll(); err != nil {
			return 0, err
		}
	}
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	t0 := c.Time()
	for i := 0; i < iters; i++ {
		if err := coll(); err != nil {
			return 0, err
		}
	}
	local := (c.Time() - t0) / float64(iters)
	return c.AllreduceScalar(mp.OpMax, local)
}

// --- helpers ---

func checkPair(c *mp.Comm, opts Options) error {
	if opts.PairA == opts.PairB {
		return fmt.Errorf("osu: pair ranks must differ")
	}
	if opts.PairA < 0 || opts.PairA >= c.Size() || opts.PairB < 0 || opts.PairB >= c.Size() {
		return fmt.Errorf("osu: pair (%d,%d) out of range for %d ranks", opts.PairA, opts.PairB, c.Size())
	}
	return nil
}

// payloadBuf returns the one message buffer a kernel reslices for every
// size, as large as the largest size. Only ranks that move data call it.
func payloadBuf(sizes []int) []byte {
	n := 0
	for _, s := range sizes {
		n = max(n, s)
	}
	return make([]byte, n)
}

// pairRole returns (0, peer) on PairA, (1, peer) on PairB and (-1, -1)
// elsewhere.
func pairRole(c *mp.Comm, opts Options) (int, int) {
	switch c.Rank() {
	case opts.PairA:
		return 0, opts.PairB
	case opts.PairB:
		return 1, opts.PairA
	default:
		return -1, -1
	}
}
