package mp

import "fmt"

// The v-variant collectives allow per-rank contribution sizes, as their
// MPI counterparts do. Counts are in bytes; displacements are implicit
// (contributions are packed contiguously in rank order).

// totalOf sums counts and validates non-negativity.
func totalOf(counts []int) (int, error) {
	total := 0
	for r, n := range counts {
		if n < 0 {
			return 0, fmt.Errorf("%w: negative count %d for rank %d", ErrMismatch, n, r)
		}
		total += n
	}
	return total, nil
}

// offsetOf returns the byte offset of rank r's block.
func offsetOf(counts []int, r int) int {
	off := 0
	for i := 0; i < r; i++ {
		off += counts[i]
	}
	return off
}

// Allgatherv gathers variable-size contributions to every rank: ring
// algorithm over the packed layout. counts must be identical on all
// ranks; recvBuf is sum(counts) bytes.
func (c *Comm) Allgatherv(sendBuf []byte, counts []int, recvBuf []byte) error {
	if len(counts) != c.Size() {
		return fmt.Errorf("%w: allgatherv counts length %d, want %d", ErrMismatch, len(counts), c.Size())
	}
	if len(sendBuf) != counts[c.rank] {
		return fmt.Errorf("%w: allgatherv sendBuf %d, counts[%d]=%d", ErrMismatch, len(sendBuf), c.rank, counts[c.rank])
	}
	total, err := totalOf(counts)
	if err != nil {
		return err
	}
	if len(recvBuf) != total {
		return fmt.Errorf("%w: allgatherv recvBuf %d, want %d", ErrMismatch, len(recvBuf), total)
	}
	tag := c.nextCollTag()
	p := c.Size()
	if !c.sizeOnly {
		copy(recvBuf[offsetOf(counts, c.rank):], sendBuf)
	}
	if p == 1 {
		return nil
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for j := 0; j < p-1; j++ {
		sb := (c.rank - j + p) % p
		rb := (c.rank - j - 1 + 2*p) % p
		sOff := offsetOf(counts, sb)
		rOff := offsetOf(counts, rb)
		if _, err := c.sendRecvInternal(
			right, tag-j, recvBuf[sOff:sOff+counts[sb]],
			left, tag-j, recvBuf[rOff:rOff+counts[rb]]); err != nil {
			return fmt.Errorf("mp: allgatherv step %d: %w", j, err)
		}
	}
	return nil
}

// Alltoallv performs a complete exchange with per-pair sizes:
// sendCounts[r] bytes go to rank r (packed in rank order in sendBuf) and
// recvCounts[r] bytes arrive from rank r (packed into recvBuf). The
// count matrices must be consistent across ranks (my sendCounts[r] ==
// r's recvCounts[me]).
func (c *Comm) Alltoallv(sendBuf []byte, sendCounts []int, recvBuf []byte, recvCounts []int) error {
	p := c.Size()
	if len(sendCounts) != p || len(recvCounts) != p {
		return fmt.Errorf("%w: alltoallv counts length", ErrMismatch)
	}
	sTotal, err := totalOf(sendCounts)
	if err != nil {
		return err
	}
	rTotal, err := totalOf(recvCounts)
	if err != nil {
		return err
	}
	if len(sendBuf) != sTotal || len(recvBuf) != rTotal {
		return fmt.Errorf("%w: alltoallv buffers (%d,%d), want (%d,%d)",
			ErrMismatch, len(sendBuf), len(recvBuf), sTotal, rTotal)
	}
	tag := c.nextCollTag()
	if !c.sizeOnly {
		copy(recvBuf[offsetOf(recvCounts, c.rank):offsetOf(recvCounts, c.rank)+recvCounts[c.rank]],
			sendBuf[offsetOf(sendCounts, c.rank):offsetOf(sendCounts, c.rank)+sendCounts[c.rank]])
	}
	for i := 1; i < p; i++ {
		sendTo := (c.rank + i) % p
		recvFrom := (c.rank - i + p) % p
		sOff := offsetOf(sendCounts, sendTo)
		rOff := offsetOf(recvCounts, recvFrom)
		t := tag - (i % collTagStride)
		if _, err := c.sendRecvInternal(
			sendTo, t, sendBuf[sOff:sOff+sendCounts[sendTo]],
			recvFrom, t, recvBuf[rOff:rOff+recvCounts[recvFrom]]); err != nil {
			return fmt.Errorf("mp: alltoallv step %d: %w", i, err)
		}
	}
	return nil
}
