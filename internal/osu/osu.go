// Package osu reimplements the OSU micro-benchmark suite's measurement
// methodology on top of the internal/mp runtime: ping-pong latency,
// window-based streaming bandwidth over one pair or many, bidirectional
// bandwidth, and collective latency. The loop structure (warmup phase,
// timed phase, window acknowledgements, iteration scaling for large
// messages) follows the original benchmarks so the measured curves have
// the same shape and semantics.
//
// All benchmark functions are called from inside an mp.Run body.
// Latency and BiBandwidth run on exactly two ranks, as osu_latency
// does; the platform's placement of ranks 0 and 1 decides which path
// class they measure. Bandwidth runs on any even world and pairs rank i
// with rank i + n/2: on two ranks it is osu_bw, on more osu_mbw_mr.
// CollectiveLatency involves every rank and synchronizes the world
// around its timed loop.
//
// Every warm-up and timed loop runs size-only (mp.Comm.SizeOnly): its
// buffers keep what they held, and the payload buffers are slices of
// the one shared mp.SizeOnlyBuf. The reductions of the measured timings
// (Bandwidth's span, CollectiveLatency's maximum) run outside it.
package osu

import (
	"fmt"
	"math"

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

// Latency runs the OSU ping-pong latency benchmark on exactly two
// ranks, as osu_latency does, returning one sample per size on rank 0:
// half round-trip time in seconds. Rank 1 returns nil.
func Latency(c *mp.Comm, opts Options) ([]Sample, error) {
	me, peer, err := pairRole(c)
	if err != nil {
		return nil, err
	}
	opts = opts.normalize()
	var out []Sample
	maxBuf := payloadBuf(opts.Sizes)
	for _, size := range opts.Sizes {
		warm, iters := opts.loops(size)
		buf := maxBuf[:size]
		var t0 float64
		err := c.SizeOnly(func() error {
			for i := 0; i < warm+iters; i++ {
				if i == warm {
					t0 = c.Time()
				}
				if me == 0 {
					if err := c.Send(peer, benchTag, buf); err != nil {
						return err
					}
					if _, err := c.Recv(peer, benchTag, buf); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(peer, benchTag, buf); err != nil {
						return err
					}
					if err := c.Send(peer, benchTag, buf); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if me == 0 {
			out = append(out, Sample{Size: size, Value: (c.Time() - t0) / float64(2*iters)})
		}
	}
	return out, nil
}

// Bandwidth runs the OSU streaming bandwidth benchmark on any even
// world: rank i < n/2 posts a window of nonblocking sends to rank
// i + n/2, which posts a window of receives followed by a 4-byte
// acknowledgement. Each size starts with a Barrier and ends with one
// Allreduce(OpMax) of every sender's (−start, end), so rank 0 reports
// all pairs' bytes over the span from the first sender's start to the
// last sender's end: osu_bw on two ranks, osu_mbw_mr's aggregate on
// more. Returns bytes/s per size on rank 0 and nil on every other rank.
func Bandwidth(c *mp.Comm, opts Options) ([]Sample, error) {
	n := c.Size()
	if n%2 != 0 {
		return nil, fmt.Errorf("osu: Bandwidth needs an even number of ranks, have %d", n)
	}
	pairs := n / 2
	sender := c.Rank() < pairs
	peer := (c.Rank() + pairs) % n
	opts = opts.normalize()
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
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		var t0 float64
		err := c.SizeOnly(func() error {
			for i := 0; i < warm+iters; i++ {
				if i == warm {
					t0 = c.Time()
				}
				if sender {
					for w := range reqs {
						r, err := c.Isend(peer, benchTag, buf)
						if err != nil {
							return err
						}
						reqs[w] = r
					}
					if err := c.WaitAll(reqs...); err != nil {
						return err
					}
					if _, err := c.Recv(peer, benchTag+1, ack); err != nil {
						return err
					}
				} else {
					for w := range reqs {
						r, err := c.Irecv(peer, benchTag, buf)
						if err != nil {
							return err
						}
						reqs[w] = r
					}
					if err := c.WaitAll(reqs...); err != nil {
						return err
					}
					if err := c.Send(peer, benchTag+1, ack); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		span := []float64{math.Inf(-1), math.Inf(-1)} // (−start, end)
		if sender {
			span[0], span[1] = -t0, c.Time()
		}
		if err := c.Allreduce(mp.OpMax, span, span); err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			moved := float64(size) * float64(opts.Window) * float64(iters) * float64(pairs)
			out = append(out, Sample{Size: size, Value: moved / (span[1] + span[0])})
		}
	}
	return out, nil
}

// BiBandwidth measures bidirectional bandwidth: both ends stream a
// window concurrently; the reported value counts traffic in both
// directions, as osu_bibw does. Like Bandwidth, it runs on two ranks
// and returns the curve on rank 0 and nil on rank 1.
func BiBandwidth(c *mp.Comm, opts Options) ([]Sample, error) {
	me, peer, err := pairRole(c)
	if err != nil {
		return nil, err
	}
	opts = opts.normalize()
	var out []Sample
	maxBuf := payloadBuf(opts.Sizes)
	sreqs := make([]*mp.Request, opts.Window)
	rreqs := make([]*mp.Request, opts.Window)
	for _, size := range opts.Sizes {
		if size == 0 {
			continue
		}
		warm, iters := opts.loops(size)
		buf := maxBuf[:size]
		var t0 float64
		err := c.SizeOnly(func() error {
			for i := 0; i < warm+iters; i++ {
				if i == warm {
					t0 = c.Time()
				}
				for w := range rreqs {
					r, err := c.Irecv(peer, benchTag, buf)
					if err != nil {
						return err
					}
					rreqs[w] = r
				}
				for w := range sreqs {
					r, err := c.Isend(peer, benchTag, buf)
					if err != nil {
						return err
					}
					sreqs[w] = r
				}
				if err := c.WaitAll(sreqs...); err != nil {
					return err
				}
				if err := c.WaitAll(rreqs...); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if me == 0 {
			moved := 2 * float64(size) * float64(opts.Window) * float64(iters)
			out = append(out, Sample{Size: size, Value: moved / (c.Time() - t0)})
		}
	}
	return out, nil
}

// CollectiveLatency times `iters` invocations of coll (after `warmup`)
// across all ranks and returns the maximum per-iteration time over
// ranks, the metric the OSU collective benchmarks report. coll runs
// size-only, so its buffers keep what they held.
func CollectiveLatency(c *mp.Comm, warmup, iters int, coll func() error) (float64, error) {
	if iters < 1 {
		return 0, fmt.Errorf("osu: iters must be >= 1")
	}
	var t0 float64
	err := c.SizeOnly(func() error {
		for i := 0; i < warmup+iters; i++ {
			if i == warmup {
				if err := c.Barrier(); err != nil {
					return err
				}
				t0 = c.Time()
			}
			if err := coll(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	local := (c.Time() - t0) / float64(iters)
	return c.AllreduceScalar(mp.OpMax, local)
}

// --- helpers ---

// payloadBuf returns the message buffer a kernel reslices for every
// size, as large as the largest size: the process-wide size-only buffer
// (mp.SizeOnlyBuf), since every loop that passes it runs size-only.
func payloadBuf(sizes []int) []byte {
	n := 0
	for _, s := range sizes {
		n = max(n, s)
	}
	return mp.SizeOnlyBuf[byte](n)
}

// pairRole returns (rank, peer) on a two-rank world and an error on any
// other, as osu_latency refuses any other process count.
func pairRole(c *mp.Comm) (int, int, error) {
	if c.Size() != 2 {
		return 0, 0, fmt.Errorf("osu: pair benchmarks need exactly 2 ranks, have %d", c.Size())
	}
	return c.Rank(), 1 - c.Rank(), nil
}
