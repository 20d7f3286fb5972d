package hpcc

import (
	"fmt"
	"math"

	"repro/internal/bytesview"
	"repro/internal/mp"
	"repro/internal/rng"
)

// PTRANSConfig configures the parallel transpose benchmark.
//
// Without Verify nothing is transposed: the exchanged block sizes and
// the charged pack and unpack traffic depend on N and the rank count
// alone, so PTRANS makes the same Barrier, Alltoall and Compute calls
// with no matrix, packing or unpacking, the Alltoall runs size-only
// (mp.Comm.SizeOnly), and Seconds and GBps are those of the computed
// transpose.
type PTRANSConfig struct {
	// N is the global matrix order; must be divisible by the rank
	// count.
	N int
	// Seed selects the deterministic test matrix.
	Seed uint64
	// Verify computes A^T + A and checks it against the closed-form
	// expectation.
	Verify bool
	// MemRate, if positive, charges local pack/unpack traffic to the
	// virtual clock at this many bytes/s. Without it a single-rank run
	// has zero modeled time.
	MemRate float64
}

// PTRANSResult reports one PTRANS run.
type PTRANSResult struct {
	N       int
	Seconds float64
	GBps    float64 // N*N*8 bytes moved across the transpose / time
	MaxErr  float64 // verification error (-1 when not verified)
}

// ptransElem is the deterministic test matrix: a closed-form function of
// (i, j) so any rank can verify any element without communication.
func ptransElem(i, j int, seed uint64) float64 {
	s := rng.NewSplitMix64(seed ^ (uint64(i)<<32 | uint64(uint32(j))))
	return s.Sym()
}

// PTRANS computes A := A^T + A on a row-block distributed N x N matrix
// (rank r owns rows [r*N/p, (r+1)*N/p)), exchanging blocks with a
// single all-to-all — the bisection-bandwidth stressor of the HPCC
// suite.
func PTRANS(c *mp.Comm, cfg PTRANSConfig) (PTRANSResult, error) {
	p := c.Size()
	n := cfg.N
	if n <= 0 || n%p != 0 {
		return PTRANSResult{}, fmt.Errorf("hpcc: PTRANS order %d not divisible by %d ranks", n, p)
	}
	rows := n / p
	r0 := c.Rank() * rows
	res := PTRANSResult{N: n, MaxErr: -1}

	// Local rows, row-major n columns.
	var local []float64
	if cfg.Verify {
		local = make([]float64, rows*n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				local[i*n+j] = ptransElem(r0+i, j, cfg.Seed)
			}
		}
	}

	if err := c.Barrier(); err != nil {
		return res, err
	}
	t0 := c.Time()

	if cfg.MemRate > 0 {
		// Pack reads + writes the local panel once.
		c.Compute(2 * 8 * float64(rows) * float64(n) / cfg.MemRate)
	}
	if cfg.Verify {
		if err := transposeAdd(c, local, rows, n); err != nil {
			return res, err
		}
	} else {
		buf := mp.SizeOnlyBuf[byte](8 * rows * n)
		if err := c.SizeOnly(func() error { return c.Alltoall(buf, buf) }); err != nil {
			return res, err
		}
	}
	if cfg.MemRate > 0 {
		// Unpack transposes + adds: ~3 passes over the local panel.
		c.Compute(3 * 8 * float64(rows) * float64(n) / cfg.MemRate)
	}
	if err := c.Barrier(); err != nil {
		return res, err
	}
	res.Seconds = c.Time() - t0
	if res.Seconds > 0 {
		res.GBps = float64(n) * float64(n) * 8 / res.Seconds / 1e9
	}

	if cfg.Verify {
		var maxErr float64
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				want := ptransElem(r0+i, j, cfg.Seed) + ptransElem(j, r0+i, cfg.Seed)
				if d := math.Abs(local[i*n+j] - want); d > maxErr {
					maxErr = d
				}
			}
		}
		total, err := c.AllreduceScalar(mp.OpMax, maxErr)
		if err != nil {
			return res, err
		}
		res.MaxErr = total
	}
	return res, nil
}

// transposeAdd adds the transpose of the distributed matrix to this
// rank's rows of it (rows x n, row-major), exchanging blocks with one
// Alltoall of rows*n float64s.
func transposeAdd(c *mp.Comm, local []float64, rows, n int) error {
	p := c.Size()
	blockWords := rows * rows
	// Pack: destination rank d gets my rows x its column range, stored
	// block-row-major so the all-to-all moves one contiguous block per
	// destination.
	sendBuf := make([]float64, rows*n)
	recvBuf := make([]float64, rows*n)
	for d := 0; d < p; d++ {
		dst := sendBuf[d*blockWords : (d+1)*blockWords]
		c0 := d * rows
		for i := 0; i < rows; i++ {
			copy(dst[i*rows:(i+1)*rows], local[i*n+c0:i*n+c0+rows])
		}
	}
	if err := c.Alltoall(bytesview.F64(sendBuf), bytesview.F64(recvBuf)); err != nil {
		return err
	}
	// Unpack: the block from rank s holds A[s-rows, my cols]; its
	// transpose lands in my rows at column range of s.
	for s := 0; s < p; s++ {
		blk := recvBuf[s*blockWords : (s+1)*blockWords]
		c0 := s * rows
		for i := 0; i < rows; i++ {
			for j := 0; j < rows; j++ {
				// A^T(r0+i, c0+j) = A(c0+j, r0+i) = blk[j*rows+i].
				local[i*n+c0+j] += blk[j*rows+i]
			}
		}
	}
	return nil
}
