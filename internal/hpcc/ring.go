package hpcc

import (
	"fmt"

	"repro/internal/mp"
	"repro/internal/rng"
)

// RingResult reports a b_eff-style ring test.
type RingResult struct {
	Size      int     // message size in bytes
	AvgTime   float64 // seconds per ring step, max over ranks
	Bandwidth float64 // aggregate bytes/s across the ring (both directions)
}

const ringTag = 7300

// NaturalRing runs the HPCC b_eff natural-ring test: every rank
// simultaneously exchanges size-byte messages with both neighbours of
// the rank-order ring for iters steps. Returns the per-step time and
// the aggregate ring bandwidth.
func NaturalRing(c *mp.Comm, size, warmup, iters int) (RingResult, error) {
	perm := make([]int, c.Size())
	for i := range perm {
		perm[i] = i
	}
	return ringOn(c, perm, size, warmup, iters)
}

// RandomRing runs the b_eff random-ring test: the ring order is a
// deterministic pseudo-random permutation, so most neighbours are
// off-node on a clustered platform. The gap between natural-ring and
// random-ring bandwidth exposes the network hierarchy.
func RandomRing(c *mp.Comm, size, warmup, iters int, seed uint64) (RingResult, error) {
	p := c.Size()
	perm := make([]int, p)
	for i := range perm {
		perm[i] = i
	}
	// Fisher-Yates with the shared seed: all ranks compute the same
	// permutation with no communication.
	s := rng.NewSplitMix64(seed)
	for i := p - 1; i > 0; i-- {
		j := int(s.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return ringOn(c, perm, size, warmup, iters)
}

// ringOn runs the ring exchange over the given rank permutation.
func ringOn(c *mp.Comm, perm []int, size, warmup, iters int) (RingResult, error) {
	if iters < 1 {
		return RingResult{}, fmt.Errorf("hpcc: ring iters %d", iters)
	}
	p := c.Size()
	if p < 2 {
		return RingResult{}, fmt.Errorf("hpcc: ring needs >= 2 ranks")
	}
	// Find my position and neighbours in the permuted ring.
	pos := -1
	for i, r := range perm {
		if r == c.Rank() {
			pos = i
			break
		}
	}
	if pos < 0 {
		return RingResult{}, fmt.Errorf("hpcc: rank %d missing from permutation", c.Rank())
	}
	right := perm[(pos+1)%p]
	left := perm[(pos-1+p)%p]

	sbuf := make([]byte, size)
	rbuf := make([]byte, size)
	sbuf2 := make([]byte, size)
	rbuf2 := make([]byte, size)

	if err := c.Barrier(); err != nil {
		return RingResult{}, err
	}
	var t0 float64
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			if err := c.Barrier(); err != nil {
				return RingResult{}, err
			}
			t0 = c.Time()
		}
		// Both directions per step, in flight together, as in b_eff's
		// Irecv/Isend variant: a rank's two sends share its egress
		// lane, so a ring with more off-node neighbours is slower. Two
		// blocking SendRecvs would chain every step through one
		// inter-node hop each way, and every ring would time the same.
		var reqs [4]*mp.Request
		var err error
		if reqs[0], err = c.Irecv(left, ringTag, rbuf); err != nil {
			return RingResult{}, err
		}
		if reqs[1], err = c.Irecv(right, ringTag+1, rbuf2); err != nil {
			return RingResult{}, err
		}
		if reqs[2], err = c.Isend(right, ringTag, sbuf); err != nil {
			return RingResult{}, err
		}
		if reqs[3], err = c.Isend(left, ringTag+1, sbuf2); err != nil {
			return RingResult{}, err
		}
		if err := c.WaitAll(reqs[:]...); err != nil {
			return RingResult{}, err
		}
	}
	local := (c.Time() - t0) / float64(iters)
	worst, err := c.AllreduceScalar(mp.OpMax, local)
	if err != nil {
		return RingResult{}, err
	}
	// Each step moves 2 messages per rank (one each direction).
	agg := 2 * float64(size) * float64(p) / worst
	return RingResult{Size: size, AvgTime: worst, Bandwidth: agg}, nil
}
