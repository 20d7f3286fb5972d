package linalg

import (
	"errors"
	"sync"

	"repro/internal/par"
)

// Default cache-blocking factors for Gemm, sized for a 32 KiB L1 / 256
// KiB L2 with float64: the (mc x kc) A-panel and (kc x nb) B-panel fit in
// L2 while the micro-tile streams through L1.
const (
	gemmMC = 64
	gemmKC = 128
	gemmNC = 256
)

// Gemm computes C = alpha*A*B + beta*C using cache-blocked loops,
// parallelized over row panels with one goroutine per static block
// (par.Block) of nthreads (<=1 means sequential). Dimensions: A is
// m x k, B is k x n, C is m x n.
func Gemm(alpha float64, a, b *Matrix, beta float64, c *Matrix, nthreads int) error {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		return errors.New("linalg: gemm dimension mismatch")
	}
	m := c.Rows

	scaleC := func(lo, hi int) {
		if beta == 1 {
			return
		}
		for i := lo; i < hi; i++ {
			row := c.Row(i)
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	body := func(lo, hi int) {
		scaleC(lo, hi)
		gemmBlocked(alpha, a, b, c, lo, hi)
	}

	if nthreads <= 1 || m < 2*gemmMC {
		body(0, m)
		return nil
	}
	nthreads = min(nthreads, m)
	var wg sync.WaitGroup
	wg.Add(nthreads)
	for w := range nthreads {
		go func() {
			defer wg.Done()
			body(par.Block(m, nthreads, w))
		}()
	}
	wg.Wait()
	return nil
}

// gemmBlocked updates C rows [rlo, rhi) with alpha*A*B (C pre-scaled).
func gemmBlocked(alpha float64, a, b, c *Matrix, rlo, rhi int) {
	k, n := a.Cols, b.Cols
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			for ic := rlo; ic < rhi; ic += gemmMC {
				mc := min(gemmMC, rhi-ic)
				gemmKernel(alpha, a, b, c, ic, jc, pc, mc, nc, kc)
			}
		}
	}
}

// gemmKernel is the inner i-k-j loop over one cache tile: row-major
// friendly (unit-stride inner loop over both B's and C's rows), with the
// A element hoisted so the compiler keeps it in a register.
func gemmKernel(alpha float64, a, b, c *Matrix, ic, jc, pc, mc, nc, kc int) {
	for i := ic; i < ic+mc; i++ {
		crow := c.Data[i*c.Stride+jc : i*c.Stride+jc+nc]
		arow := a.Data[i*a.Stride+pc : i*a.Stride+pc+kc]
		for p := 0; p < kc; p++ {
			av := alpha * arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[(pc+p)*b.Stride+jc : (pc+p)*b.Stride+jc+nc]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// GemmFlops returns the floating-point operation count of an m x k by
// k x n multiply (2mnk), used by the DGEMM benchmark to convert time to
// FLOP/s.
func GemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }
