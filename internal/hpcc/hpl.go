// Package hpcc reimplements the HPC Challenge benchmark kernels on the
// internal/mp runtime: HPL (distributed LU), DGEMM, PTRANS (distributed
// transpose), RandomAccess (GUPS), a distributed six-step FFT, and the
// b_eff-style ring latency/bandwidth tests. Each kernel stresses a
// different machine axis — compute, memory, bisection bandwidth, small
// message rate — which together form the HPCC summary table the
// characterization reproduces (experiment T3).
package hpcc

import (
	"fmt"

	"repro/internal/bytesview"
	"repro/internal/linalg"
	"repro/internal/mp"
	"repro/internal/rng"
)

// HPLConfig configures the distributed LU benchmark.
type HPLConfig struct {
	// N is the global matrix order.
	N int
	// NB is the block-cyclic panel width (default linalg.DefaultLUBlock).
	NB int
	// Seed selects the deterministic test matrix.
	Seed uint64
	// ComputeRate, if positive, charges flops/ComputeRate seconds of
	// virtual time per local flop block. Without it a single-rank run
	// has zero modeled time.
	ComputeRate float64
	// SkipCheck skips the residual validation (benchmark loops) and the
	// arithmetic only the check reads: the matrix is never filled or
	// factored, and the panel loop runs size-only (mp.Comm.SizeOnly)
	// with the same messages and charges, hence the same Seconds.
	SkipCheck bool
}

// HPLResult reports one HPL run.
type HPLResult struct {
	N, NB, P int
	Seconds  float64
	GFlops   float64
	Residual float64 // scaled residual; <16 passes (NaN when skipped)
}

// colOwner returns the rank owning global column j under 1-D
// block-cyclic distribution with block nb over p ranks.
func colOwner(j, nb, p int) int { return (j / nb) % p }

// localCol maps global column j to its local column index on its owner.
func localCol(j, nb, p int) int { return (j/nb/p)*nb + j%nb }

// localCols returns how many columns rank r stores for a global order n.
func localCols(n, nb, p, r int) int {
	full := n / nb // complete blocks
	cols := (full / p) * nb
	if full%p > r {
		cols += nb
	} else if full%p == r {
		cols += n % nb
	}
	// Note: remainder block belongs to rank full%p.
	return cols
}

// fillColumn writes the deterministic HPL test column j into dst
// (length n): uniform [-0.5, 0.5) from a per-column stream, so any rank
// can regenerate any column without communication.
func fillColumn(dst []float64, j int, seed uint64) {
	s := rng.NewSplitMix64(seed ^ (uint64(j)+1)*0x9e3779b97f4a7c15)
	for i := range dst {
		dst[i] = s.Sym()
	}
}

// HPL factorizes a deterministic N x N system with 1-D column
// block-cyclic LU (panel factorization on the owning rank, panel
// broadcast, distributed row swaps and trailing update), then gathers
// the factors to rank 0 for the O(n^2) triangular solve and residual
// check. The timed region is the factorization, whose 2n^3/3 flops
// dominate, as in HPL.
func HPL(c *mp.Comm, cfg HPLConfig) (HPLResult, error) {
	p := c.Size()
	n := cfg.N
	nb := cfg.NB
	if nb <= 0 {
		nb = linalg.DefaultLUBlock
	}
	if nb > n {
		nb = n
	}
	if n <= 0 {
		return HPLResult{}, fmt.Errorf("hpcc: HPL order %d", n)
	}
	res := HPLResult{N: n, NB: nb, P: p}
	check := !cfg.SkipCheck

	// Local storage: n rows x lc columns, filled only when the check
	// will read the factors.
	var local *linalg.Matrix
	if check {
		lc := localCols(n, nb, p, c.Rank())
		local = linalg.New(n, max(lc, 1))
		local.Cols = lc
		colBuf := make([]float64, n)
		for j := 0; j < n; j++ {
			if colOwner(j, nb, p) != c.Rank() {
				continue
			}
			fillColumn(colBuf, j, cfg.Seed)
			lj := localCol(j, nb, p)
			for i := 0; i < n; i++ {
				local.Set(i, lj, colBuf[i])
			}
		}
	}

	pivAll := make([]int, n)
	panelBuf := make([]float64, 0, n*nb)
	pivBuf := make([]float64, nb)

	if err := c.Barrier(); err != nil {
		return res, err
	}
	t0 := c.Time()

	// The panel loop. Each row swap is local (every rank holds all n
	// rows of its columns), the pivots and the panel are broadcast at
	// fixed sizes, and charge takes flop counts only, so no message or
	// charge depends on a matrix value. Without the check the loop
	// therefore runs size-only and skips the arithmetic.
	factor := func() error {
		for k := 0; k < n; k += nb {
			jb := min(nb, n-k)
			owner := colOwner(k, nb, p)
			rows := n - k

			// 1. Panel factorization on the owner.
			panelBuf = panelBuf[:rows*jb]
			if c.Rank() == owner {
				if check {
					lk := localCol(k, nb, p)
					panel := local.View(k, lk, rows, jb)
					piv := make([]int, jb)
					if err := factorPanel(panel, piv); err != nil {
						return fmt.Errorf("hpcc: HPL panel at %d: %w", k, err)
					}
					for t := 0; t < jb; t++ {
						pivBuf[t] = float64(piv[t] + k) // absolute row index
					}
					packPanel(panel, panelBuf)
				}
				charge(c, cfg.ComputeRate, panelFlops(rows, jb))
			}

			// 2. Broadcast pivots and the factored panel.
			if err := c.Bcast(owner, bytesview.F64(pivBuf[:jb])); err != nil {
				return err
			}
			if err := c.Bcast(owner, bytesview.F64(panelBuf)); err != nil {
				return err
			}

			// 3. Apply the panel's row swaps to every local column
			// outside the panel block (the owner's panel columns were
			// swapped in place during factorization).
			if check {
				applySwaps(local, pivBuf[:jb], pivAll, k, nb, p, c.Rank(), owner)
			}

			if k+jb >= n {
				break
			}

			// 4. Trailing update on each rank's local columns right of
			// the panel, block by block.
			var l11, l21 *linalg.Matrix
			if check {
				panel := linalg.New(rows, jb)
				unpackPanel(panelBuf, panel)
				l11 = panel.View(0, 0, jb, jb)
				if rows > jb {
					l21 = panel.View(jb, 0, rows-jb, jb)
				}
			}
			var updFlops float64
			for gb := k/nb + 1; gb*nb < n; gb++ {
				if colOwner(gb*nb, nb, p) != c.Rank() {
					continue
				}
				w := min(nb, n-gb*nb)
				if check {
					ljc := localCol(gb*nb, nb, p)
					u12 := local.View(k, ljc, jb, w)
					if err := linalg.TrsmLowerUnitLeft(l11, u12); err != nil {
						return err
					}
					if l21 != nil {
						a22 := local.View(k+jb, ljc, rows-jb, w)
						if err := linalg.Gemm(-1, l21, u12, 1, a22, 1); err != nil {
							return err
						}
					}
				}
				updFlops += float64(jb)*float64(jb)*float64(w) + // trsm
					linalg.GemmFlops(rows-jb, w, jb)
			}
			charge(c, cfg.ComputeRate, updFlops)
		}
		return nil
	}
	var err error
	if check {
		err = factor()
	} else {
		err = c.SizeOnly(factor)
	}
	if err != nil {
		return res, err
	}

	if err := c.Barrier(); err != nil {
		return res, err
	}
	res.Seconds = c.Time() - t0
	res.GFlops = linalg.LUFlops(n) / res.Seconds / 1e9

	if cfg.SkipCheck {
		res.Residual = -1
		return res, nil
	}

	// Gather the factors to rank 0, solve, validate.
	full, err := gatherColumns(c, local, n, nb)
	if err != nil {
		return res, err
	}
	status := make([]float64, 1)
	if c.Rank() == 0 {
		b := make([]float64, n)
		s := rng.NewSplitMix64(cfg.Seed ^ 0xb5ad4eceda1ce2a9)
		for i := range b {
			b[i] = s.Sym()
		}
		x := append([]float64(nil), b...)
		if err := linalg.Getrs(full, pivAll, x); err != nil {
			return res, err
		}
		orig := linalg.New(n, n)
		col := make([]float64, n)
		for j := 0; j < n; j++ {
			fillColumn(col, j, cfg.Seed)
			for i := 0; i < n; i++ {
				orig.Set(i, j, col[i])
			}
		}
		r, err := linalg.HPLResidual(orig, x, b)
		if err != nil {
			return res, err
		}
		status[0] = r
	}
	if err := c.Bcast(0, bytesview.F64(status)); err != nil {
		return res, err
	}
	res.Residual = status[0]
	return res, nil
}

// applySwaps records the panel's absolute pivot rows piv, starting at
// row k, in pivAll and applies the swaps to rank's local columns, except
// the owner's panel block, which factorPanel already swapped.
func applySwaps(local *linalg.Matrix, piv []float64, pivAll []int, k, nb, p, rank, owner int) {
	for t, f := range piv {
		pr := int(f)
		pivAll[k+t] = pr
		if pr == k+t {
			continue
		}
		for ljc := 0; ljc < local.Cols; ljc++ {
			gj := globalCol(ljc, nb, p, rank)
			if gj >= k && gj < k+len(piv) && rank == owner {
				continue // already swapped in the panel
			}
			a, b := local.At(k+t, ljc), local.At(pr, ljc)
			local.Set(k+t, ljc, b)
			local.Set(pr, ljc, a)
		}
	}
}

// factorPanel is getrfPanel re-exported into this package's flow: it
// factors the m x jb panel in place with partial pivoting, pivots
// relative to the panel top.
func factorPanel(panel *linalg.Matrix, piv []int) error {
	// Reuse the library's blocked factorization with a single block:
	// Getrf on an m x jb matrix factors exactly the panel.
	return linalg.Getrf(panel, piv, panel.Cols, 1)
}

// panelFlops approximates the panel factorization flop count.
func panelFlops(m, jb int) float64 {
	return float64(m) * float64(jb) * float64(jb)
}

func packPanel(panel *linalg.Matrix, buf []float64) {
	idx := 0
	for i := 0; i < panel.Rows; i++ {
		row := panel.Data[i*panel.Stride : i*panel.Stride+panel.Cols]
		idx += copy(buf[idx:], row)
	}
}

func unpackPanel(buf []float64, panel *linalg.Matrix) {
	idx := 0
	for i := 0; i < panel.Rows; i++ {
		row := panel.Data[i*panel.Stride : i*panel.Stride+panel.Cols]
		idx += copy(row, buf[idx:idx+panel.Cols])
	}
}

// globalCol maps a local column index back to its global column.
func globalCol(lj, nb, p, r int) int {
	block := lj / nb
	return (block*p+r)*nb + lj%nb
}

// gatherColumns assembles the distributed matrix on rank 0.
func gatherColumns(c *mp.Comm, local *linalg.Matrix, n, nb int) (*linalg.Matrix, error) {
	p := c.Size()
	var full *linalg.Matrix
	if c.Rank() == 0 {
		full = linalg.New(n, n)
	}
	const tag = 7100
	buf := make([]float64, n*nb)
	for gb := 0; gb*nb < n; gb++ {
		j := gb * nb
		w := min(nb, n-j)
		owner := colOwner(j, nb, p)
		switch {
		case owner == c.Rank() && c.Rank() == 0:
			lj := localCol(j, nb, p)
			for i := 0; i < n; i++ {
				for t := 0; t < w; t++ {
					full.Set(i, j+t, local.At(i, lj+t))
				}
			}
		case owner == c.Rank():
			lj := localCol(j, nb, p)
			blk := buf[:n*w]
			idx := 0
			for i := 0; i < n; i++ {
				for t := 0; t < w; t++ {
					blk[idx] = local.At(i, lj+t)
					idx++
				}
			}
			if err := c.Send(0, tag, bytesview.F64(blk)); err != nil {
				return nil, err
			}
		case c.Rank() == 0:
			blk := buf[:n*w]
			if _, err := c.Recv(owner, tag, bytesview.F64(blk)); err != nil {
				return nil, err
			}
			idx := 0
			for i := 0; i < n; i++ {
				for t := 0; t < w; t++ {
					full.Set(i, j+t, blk[idx])
					idx++
				}
			}
		}
	}
	return full, nil
}

// charge adds flops/rate seconds of virtual compute time (no-op when
// rate <= 0 or on real-time fabrics).
func charge(c *mp.Comm, rate, flops float64) {
	if rate > 0 {
		c.Compute(flops / rate)
	}
}
