package mp

import (
	"errors"
	"fmt"
)

// Collectives must be invoked by all ranks of the Run in the same
// order (as in MPI). Each invocation consumes one collective epoch,
// which generates internal tags disjoint from user tag space; the round
// number is folded into the tag so that algorithm phases cannot match
// across rounds.

const collTagStride = 4096 // max p2p rounds distinguishable per collective

func (c *Comm) nextCollTag() int {
	c.stats.Collectives++
	c.collEpoch++
	return collTagBase - int(c.collEpoch)*collTagStride
}

// ErrMismatch reports inconsistent buffer sizes across collective
// arguments.
var ErrMismatch = errors.New("mp: collective buffer size mismatch")

// Barrier blocks until every rank has entered it, using the
// dissemination algorithm (ceil(log2 p) zero-byte rounds).
func (c *Comm) Barrier() error {
	if c.Size() == 1 {
		return nil
	}
	tag := c.nextCollTag()
	round := 0
	for k := 1; k < c.Size(); k <<= 1 {
		dst := (c.rank + k) % c.Size()
		src := (c.rank - k + c.Size()) % c.Size()
		if _, err := c.sendRecvInternal(dst, tag-round, nil, src, tag-round, nil); err != nil {
			return fmt.Errorf("mp: barrier round %d: %w", round, err)
		}
		round++
	}
	return nil
}

// Bcast broadcasts root's buf to every rank (in-place on non-roots).
// All ranks must pass equal-length buffers.
func (c *Comm) Bcast(root int, buf []byte) error {
	if err := c.checkPeer(root); err != nil {
		return err
	}
	if c.Size() == 1 {
		return nil
	}
	tag := c.nextCollTag()
	algo := c.cfg.Bcast
	if algo == BcastAuto {
		if len(buf) <= 32*1024 || c.Size() < 4 {
			algo = BcastBinomial
		} else {
			algo = BcastScatterAllgather
		}
	}
	switch algo {
	case BcastBinomial:
		return c.bcastBinomial(root, buf, tag)
	case BcastScatterAllgather:
		return c.bcastScatterAllgather(root, buf, tag)
	case BcastPipelineRing:
		return c.bcastPipelineRing(root, buf, tag)
	default:
		return fmt.Errorf("mp: unknown bcast algorithm %v", algo)
	}
}

// bcastPipelineChunk is the pipeline depth unit for BcastPipelineRing.
const bcastPipelineChunk = 8 * 1024

// bcastPipelineRing streams the buffer down the ring in fixed chunks:
// each rank forwards chunk i while its predecessor is already sending
// chunk i+1, so steady-state cost is one chunk time per chunk plus a
// (p-2)-deep pipeline fill. The forward in flight holds the send slot;
// it is done before the next forward reuses it.
func (c *Comm) bcastPipelineRing(root int, buf []byte, tag int) error {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	nchunks := (len(buf) + bcastPipelineChunk - 1) / bcastPipelineChunk
	if len(buf) == 0 {
		nchunks = 1 // still run one empty round so ring ordering holds
	}
	var pendingSend *Request
	for i := 0; i < nchunks; i++ {
		lo := i * bcastPipelineChunk
		hi := lo + bcastPipelineChunk
		if hi > len(buf) {
			hi = len(buf)
		}
		chunk := buf[lo:hi]
		chunkTag := tag - (i % (collTagStride - 1))
		if vrank != 0 {
			if _, err := c.recvInternal(prev, chunkTag, chunk); err != nil {
				return fmt.Errorf("mp: bcast pipeline recv chunk %d: %w", i, err)
			}
		}
		if vrank != p-1 {
			// Overlap: wait for the previous forward only now, so the
			// next receive can progress while the send drains.
			if pendingSend != nil {
				if err := c.waitFor(pendingSend); err != nil {
					return fmt.Errorf("mp: bcast pipeline send wait: %w", err)
				}
			}
			req, err := c.isendInto(reuse(&c.sreq), next, chunkTag, chunk)
			if err != nil {
				return fmt.Errorf("mp: bcast pipeline send chunk %d: %w", i, err)
			}
			pendingSend = req
		}
	}
	if pendingSend != nil {
		if err := c.waitFor(pendingSend); err != nil {
			return fmt.Errorf("mp: bcast pipeline final wait: %w", err)
		}
	}
	return nil
}

// bcastBinomial relays the full message down a binomial tree rooted at
// root: ceil(log2 p) rounds, each moving the whole buffer.
func (c *Comm) bcastBinomial(root int, buf []byte, tag int) error {
	vrank := (c.rank - root + c.Size()) % c.Size()
	// Receive phase: find the bit at which this rank gets the message.
	mask := 1
	for mask < c.Size() {
		if vrank&mask != 0 {
			src := (c.rank - mask + c.Size()) % c.Size()
			if _, err := c.recvInternal(src, tag, buf); err != nil {
				return fmt.Errorf("mp: bcast recv: %w", err)
			}
			break
		}
		mask <<= 1
	}
	// Relay phase: forward to children at decreasing masks.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < c.Size() {
			dst := (c.rank + mask) % c.Size()
			if err := c.sendInternal(dst, tag, buf); err != nil {
				return fmt.Errorf("mp: bcast send: %w", err)
			}
		}
		mask >>= 1
	}
	return nil
}

// bcastScatterAllgather is the van de Geijn large-message broadcast: a
// binomial scatter of 1/p-sized blocks followed by a ring allgather.
// Bandwidth moved per rank is ~2 bytes/byte instead of log2(p).
func (c *Comm) bcastScatterAllgather(root int, buf []byte, tag int) error {
	n := len(buf)
	p := c.Size()
	ss := (n + p - 1) / p // scatter block stride
	vrank := (c.rank - root + p) % p

	blockLo := func(v int) int { return min(v*ss, n) }
	blockHi := func(v int) int { return min((v+1)*ss, n) }

	// Phase 1: binomial scatter in vrank space. After this phase, vrank
	// v holds bytes [v*ss, n) truncated at its current subtree extent;
	// precisely, v holds at least its own block [v*ss, min((v+1)ss, n)).
	curSize := 0
	if vrank == 0 {
		curSize = n
	}
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := (c.rank - mask + p) % p
			recvLo := blockLo(vrank)
			recvSize := n - recvLo
			if recvSize > 0 {
				st, err := c.recvInternal(src, tag, buf[recvLo:])
				if err != nil {
					return fmt.Errorf("mp: bcast scatter recv: %w", err)
				}
				curSize = st.Count
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			sendLo := blockLo(vrank + mask)
			sendSize := curSize - (sendLo - blockLo(vrank))
			if sendSize > 0 {
				dst := (c.rank + mask) % p
				if err := c.sendInternal(dst, tag, buf[sendLo:sendLo+sendSize]); err != nil {
					return fmt.Errorf("mp: bcast scatter send: %w", err)
				}
				curSize -= sendSize
			}
		}
		mask >>= 1
	}

	// Phase 2: ring allgather of the p blocks, in vrank space. At step
	// j, vrank v sends block (v-j) and receives block (v-j-1) from its
	// left neighbour.
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for j := 0; j < p-1; j++ {
		sb := (vrank - j + p) % p
		rb := (vrank - j - 1 + 2*p) % p
		sLo, sHi := blockLo(sb), blockHi(sb)
		rLo, rHi := blockLo(rb), blockHi(rb)
		if _, err := c.sendRecvInternal(right, tag-1-j, buf[sLo:sHi], left, tag-1-j, buf[rLo:rHi]); err != nil {
			return fmt.Errorf("mp: bcast allgather step %d: %w", j, err)
		}
	}
	return nil
}

// Allgather gathers every rank's sendBuf into every rank's recvBuf
// (size*len(sendBuf) bytes, rank order). The ring algorithm is used for
// general p, recursive doubling when p is a power of two.
func (c *Comm) Allgather(sendBuf, recvBuf []byte) error {
	bs := len(sendBuf)
	if len(recvBuf) != bs*c.Size() {
		return fmt.Errorf("%w: allgather recvBuf %d, want %d", ErrMismatch, len(recvBuf), bs*c.Size())
	}
	tag := c.nextCollTag()
	if !c.sizeOnly {
		copy(recvBuf[c.rank*bs:(c.rank+1)*bs], sendBuf)
	}
	if c.Size() == 1 {
		return nil
	}
	if isPow2(c.Size()) {
		return c.allgatherRecDoubling(recvBuf, bs, tag)
	}
	return c.allgatherRing(recvBuf, bs, tag)
}

func (c *Comm) allgatherRing(recvBuf []byte, bs, tag int) error {
	p := c.Size()
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for j := 0; j < p-1; j++ {
		sb := (c.rank - j + p) % p
		rb := (c.rank - j - 1 + 2*p) % p
		if _, err := c.sendRecvInternal(right, tag-j, recvBuf[sb*bs:(sb+1)*bs], left, tag-j, recvBuf[rb*bs:(rb+1)*bs]); err != nil {
			return fmt.Errorf("mp: allgather ring step %d: %w", j, err)
		}
	}
	return nil
}

// allgatherRecDoubling doubles the gathered extent each round: after
// round k, each rank holds the blocks of its 2^(k+1)-rank aligned group.
func (c *Comm) allgatherRecDoubling(recvBuf []byte, bs, tag int) error {
	p := c.Size()
	for mask, round := 1, 0; mask < p; mask, round = mask<<1, round+1 {
		peer := c.rank ^ mask
		// This rank currently holds blocks of its mask-aligned group.
		myLo := (c.rank &^ (mask - 1)) * bs
		peerLo := (peer &^ (mask - 1)) * bs
		ext := mask * bs
		if _, err := c.sendRecvInternal(peer, tag-round, recvBuf[myLo:myLo+ext], peer, tag-round, recvBuf[peerLo:peerLo+ext]); err != nil {
			return fmt.Errorf("mp: allgather rd round %d: %w", round, err)
		}
	}
	return nil
}

// Alltoall performs a complete exchange: block r of sendBuf goes to rank
// r, which stores it at block index c.rank of its recvBuf. Both buffers
// are size*blockLen bytes with equal blockLen across ranks.
func (c *Comm) Alltoall(sendBuf, recvBuf []byte) error {
	if len(sendBuf) != len(recvBuf) {
		return fmt.Errorf("%w: alltoall %d vs %d", ErrMismatch, len(sendBuf), len(recvBuf))
	}
	if len(sendBuf)%c.Size() != 0 {
		return fmt.Errorf("%w: alltoall buffer %d not divisible by %d ranks", ErrMismatch, len(sendBuf), c.Size())
	}
	tag := c.nextCollTag()
	bs := len(sendBuf) / c.Size()
	if !c.sizeOnly {
		copy(recvBuf[c.rank*bs:(c.rank+1)*bs], sendBuf[c.rank*bs:(c.rank+1)*bs])
	}
	p := c.Size()
	// Pairwise exchange: XOR schedule for power-of-two p (perfectly
	// paired, contention-free), rotation schedule otherwise.
	for i := 1; i < p; i++ {
		var sendTo, recvFrom int
		if isPow2(p) {
			sendTo = c.rank ^ i
			recvFrom = sendTo
		} else {
			sendTo = (c.rank + i) % p
			recvFrom = (c.rank - i + p) % p
		}
		if _, err := c.sendRecvInternal(
			sendTo, tag-(i%collTagStride), sendBuf[sendTo*bs:(sendTo+1)*bs],
			recvFrom, tag-(i%collTagStride), recvBuf[recvFrom*bs:(recvFrom+1)*bs]); err != nil {
			return fmt.Errorf("mp: alltoall step %d: %w", i, err)
		}
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
