package mp

import (
	"fmt"
	"math"

	"repro/internal/bytesview"
)

// Op is a reduction operator over float64 vectors. All provided operators
// are associative and commutative, which the tree-shaped algorithms
// require.
type Op int

const (
	// OpSum adds elementwise.
	OpSum Op = iota
	// OpProd multiplies elementwise.
	OpProd
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// combine folds src into dst elementwise, dst = dst (op) src, or does
// nothing inside SizeOnly.
func (c *Comm) combine(op Op, dst, src []float64) {
	if c.sizeOnly {
		return
	}
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpProd:
		for i := range dst {
			dst[i] *= src[i]
		}
	case OpMax:
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	case OpMin:
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	default:
		panic(fmt.Sprintf("mp: unknown op %d", int(op)))
	}
}

// Reduce combines sendBuf across ranks with op; the result lands in
// recvBuf on root (recvBuf is ignored on other ranks). Uses a binomial
// tree: ceil(log2 p) rounds.
func (c *Comm) Reduce(root int, op Op, sendBuf, recvBuf []float64) error {
	if err := c.checkPeer(root); err != nil {
		return err
	}
	if c.rank == root && len(recvBuf) != len(sendBuf) {
		return fmt.Errorf("%w: reduce recvBuf %d, want %d", ErrMismatch, len(recvBuf), len(sendBuf))
	}
	tag := c.nextCollTag()
	n := len(sendBuf)

	// acc is this rank's running partial result.
	scratch := c.tmp(2 * n)
	tmp, acc := scratch[:n], scratch[n:]
	if c.rank == root {
		acc = recvBuf
	}
	copy(acc, sendBuf)

	vrank := (c.rank - root + c.Size()) % c.Size()
	round := 0
	for mask := 1; mask < c.Size(); mask <<= 1 {
		if vrank&mask == 0 {
			peerV := vrank | mask
			if peerV < c.Size() {
				src := (peerV + root) % c.Size()
				if _, err := c.recvInternal(src, tag-round, bytesview.F64(tmp)); err != nil {
					return fmt.Errorf("mp: reduce recv: %w", err)
				}
				c.combine(op, acc, tmp)
			}
		} else {
			dst := ((vrank &^ mask) + root) % c.Size()
			if err := c.sendInternal(dst, tag-round, bytesview.F64(acc)); err != nil {
				return fmt.Errorf("mp: reduce send: %w", err)
			}
			break // sent partial up the tree; this rank is done
		}
		round++
	}
	return nil
}

// Allreduce combines sendBuf across all ranks into every rank's recvBuf.
// The algorithm is selected by Config.Allreduce (recursive doubling,
// Rabenseifner, or ring; Auto switches on vector size).
func (c *Comm) Allreduce(op Op, sendBuf, recvBuf []float64) error {
	if len(recvBuf) != len(sendBuf) {
		return fmt.Errorf("%w: allreduce recvBuf %d, want %d", ErrMismatch, len(recvBuf), len(sendBuf))
	}
	if !c.sizeOnly {
		copy(recvBuf, sendBuf)
	}
	if c.Size() == 1 {
		return nil
	}
	tag := c.nextCollTag()
	algo := c.cfg.Allreduce
	if algo == AllreduceAuto {
		if len(sendBuf) <= 2048 || c.Size() < 4 {
			algo = AllreduceRecursiveDoubling
		} else {
			algo = AllreduceRabenseifner
		}
	}
	switch algo {
	case AllreduceRecursiveDoubling:
		return c.allreduceRecDoubling(op, recvBuf, tag)
	case AllreduceRabenseifner:
		return c.allreduceRabenseifner(op, recvBuf, tag)
	case AllreduceRing:
		return c.allreduceRing(op, recvBuf, tag)
	default:
		return fmt.Errorf("mp: unknown allreduce algorithm %v", algo)
	}
}

// foldToPow2 reduces the participant set to the largest power of two
// r <= p using the standard MPICH pre-step: the first 2*(p-r) ranks pair
// up, evens ship their vector to odds and sit out. It returns the
// virtual rank of this process among the r participants, or -1 if this
// rank is idle, plus a mapping closure from virtual to real rank.
func (c *Comm) foldToPow2(op Op, acc []float64, tag int) (newRank, pow2 int, toReal func(int) int, err error) {
	p := c.Size()
	r := 1
	for r*2 <= p {
		r *= 2
	}
	rem := p - r
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		if err := c.sendInternal(c.rank+1, tag, bytesview.F64(acc)); err != nil {
			return 0, 0, nil, err
		}
		newRank = -1
	case c.rank < 2*rem:
		tmp := c.tmp(len(acc))
		if _, err := c.recvInternal(c.rank-1, tag, bytesview.F64(tmp)); err != nil {
			return 0, 0, nil, err
		}
		c.combine(op, acc, tmp)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}
	toReal = func(v int) int {
		if v < rem {
			return v*2 + 1
		}
		return v + rem
	}
	return newRank, r, toReal, nil
}

// unfoldFromPow2 ships the final result back to the idle even ranks.
func (c *Comm) unfoldFromPow2(acc []float64, tag int) error {
	p := c.Size()
	r := 1
	for r*2 <= p {
		r *= 2
	}
	rem := p - r
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		_, err := c.recvInternal(c.rank+1, tag, bytesview.F64(acc))
		return err
	case c.rank < 2*rem && c.rank%2 == 1:
		return c.sendInternal(c.rank-1, tag, bytesview.F64(acc))
	}
	return nil
}

// allreduceRecDoubling exchanges full vectors with XOR partners in
// log2(r) rounds. Latency-optimal; moves the whole vector each round.
func (c *Comm) allreduceRecDoubling(op Op, acc []float64, tag int) error {
	newRank, r, toReal, err := c.foldToPow2(op, acc, tag)
	if err != nil {
		return fmt.Errorf("mp: allreduce fold: %w", err)
	}
	if newRank >= 0 {
		tmp := c.tmp(len(acc))
		round := 1
		for mask := 1; mask < r; mask <<= 1 {
			peer := toReal(newRank ^ mask)
			if _, err := c.sendRecvInternal(peer, tag-round, bytesview.F64(acc), peer, tag-round, bytesview.F64(tmp)); err != nil {
				return fmt.Errorf("mp: allreduce rd round %d: %w", round, err)
			}
			c.combine(op, acc, tmp)
			round++
		}
	}
	if err := c.unfoldFromPow2(acc, tag-collTagStride/2); err != nil {
		return fmt.Errorf("mp: allreduce unfold: %w", err)
	}
	return nil
}

// allreduceRabenseifner does a recursive-halving reduce-scatter followed
// by a recursive-doubling allgather: each rank moves ~2 vectors total
// instead of log2(p), which wins for large vectors.
func (c *Comm) allreduceRabenseifner(op Op, acc []float64, tag int) error {
	newRank, r, toReal, err := c.foldToPow2(op, acc, tag)
	if err != nil {
		return fmt.Errorf("mp: allreduce fold: %w", err)
	}
	if newRank >= 0 {
		n := len(acc)
		// Block b of the r blocks spans [cut(b), cut(b+1)).
		cut := func(b int) int { return b * n / r }
		tmp := c.tmp(n)

		// Reduce-scatter by recursive halving: at each round the
		// active window [lo, hi) of blocks halves; this rank keeps
		// the half containing its own block and combines what the
		// partner sends.
		lo, hi := 0, r
		round := 1
		for mask := r / 2; mask >= 1; mask >>= 1 {
			peer := toReal(newRank ^ mask)
			mid := (lo + hi) / 2
			var keepLo, keepHi, sendLo, sendHi int
			if newRank&mask == 0 {
				keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
			} else {
				keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
			}
			sl, sh := cut(sendLo), cut(sendHi)
			kl, kh := cut(keepLo), cut(keepHi)
			if _, err := c.sendRecvInternal(peer, tag-round, bytesview.F64(acc[sl:sh]), peer, tag-round, bytesview.F64(tmp[kl:kh])); err != nil {
				return fmt.Errorf("mp: allreduce rs round %d: %w", round, err)
			}
			c.combine(op, acc[kl:kh], tmp[kl:kh])
			lo, hi = keepLo, keepHi
			round++
		}

		// Allgather by recursive doubling: windows re-expand in the
		// reverse order.
		for mask := 1; mask < r; mask <<= 1 {
			peer := toReal(newRank ^ mask)
			// The window this rank currently owns.
			ownLo := newRank &^ (mask - 1)
			ownHi := ownLo + mask
			peerLo := (newRank ^ mask) &^ (mask - 1)
			peerHi := peerLo + mask
			ol, oh := cut(ownLo), cut(ownHi)
			pl, ph := cut(peerLo), cut(peerHi)
			if _, err := c.sendRecvInternal(peer, tag-round, bytesview.F64(acc[ol:oh]), peer, tag-round, bytesview.F64(acc[pl:ph])); err != nil {
				return fmt.Errorf("mp: allreduce ag round %d: %w", round, err)
			}
			round++
		}
	}
	if err := c.unfoldFromPow2(acc, tag-collTagStride/2); err != nil {
		return fmt.Errorf("mp: allreduce unfold: %w", err)
	}
	return nil
}

// allreduceRing is the bandwidth-optimal ring: p-1 reduce-scatter steps
// followed by p-1 allgather steps over 1/p-sized chunks. Works for any p.
func (c *Comm) allreduceRing(op Op, acc []float64, tag int) error {
	p := c.Size()
	n := len(acc)
	chunk := func(b int) (int, int) {
		b = ((b % p) + p) % p
		return b * n / p, (b + 1) * n / p
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	tmp := c.tmp(n/p + 1)

	// Reduce-scatter phase: after p-1 steps, rank r owns the fully
	// reduced chunk (r+1) mod p.
	for step := 0; step < p-1; step++ {
		sLo, sHi := chunk(c.rank - step)
		rLo, rHi := chunk(c.rank - step - 1)
		rtmp := tmp[:rHi-rLo]
		if _, err := c.sendRecvInternal(right, tag-step, bytesview.F64(acc[sLo:sHi]), left, tag-step, bytesview.F64(rtmp)); err != nil {
			return fmt.Errorf("mp: allreduce ring rs step %d: %w", step, err)
		}
		c.combine(op, acc[rLo:rHi], rtmp)
	}
	// Allgather phase: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		sLo, sHi := chunk(c.rank - step + 1)
		rLo, rHi := chunk(c.rank - step)
		if _, err := c.sendRecvInternal(right, tag-(p-1)-step, bytesview.F64(acc[sLo:sHi]), left, tag-(p-1)-step, bytesview.F64(acc[rLo:rHi])); err != nil {
			return fmt.Errorf("mp: allreduce ring ag step %d: %w", step, err)
		}
	}
	return nil
}

// Scan computes an inclusive prefix reduction: rank r's recvBuf holds
// sendBuf(0) op ... op sendBuf(r). Hillis–Steele: ceil(log2 p) rounds.
func (c *Comm) Scan(op Op, sendBuf, recvBuf []float64) error {
	if len(recvBuf) != len(sendBuf) {
		return fmt.Errorf("%w: scan recvBuf %d, want %d", ErrMismatch, len(recvBuf), len(sendBuf))
	}
	copy(recvBuf, sendBuf)
	if c.Size() == 1 {
		return nil
	}
	tag := c.nextCollTag()
	n := len(sendBuf)
	scratch := c.tmp(2 * n)
	tmp, snapshot := scratch[:n], scratch[n:]
	round := 0
	for mask := 1; mask < c.Size(); mask <<= 1 {
		copy(snapshot, recvBuf) // value to forward this round
		var sreq *Request
		var err error
		if c.rank+mask < c.Size() {
			sreq, err = c.isendInternal(c.rank+mask, tag-round, bytesview.F64(snapshot))
			if err != nil {
				return fmt.Errorf("mp: scan send: %w", err)
			}
		}
		if c.rank-mask >= 0 {
			if _, err := c.recvInternal(c.rank-mask, tag-round, bytesview.F64(tmp)); err != nil {
				return fmt.Errorf("mp: scan recv: %w", err)
			}
			c.combine(op, recvBuf, tmp)
		}
		if sreq != nil {
			if err := c.waitFor(sreq); err != nil {
				return fmt.Errorf("mp: scan send wait: %w", err)
			}
		}
		round++
	}
	return nil
}

// AllreduceScalar is a convenience wrapper reducing a single value.
func (c *Comm) AllreduceScalar(op Op, x float64) (float64, error) {
	in := [1]float64{x}
	var out [1]float64
	if err := c.Allreduce(op, in[:], out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}
