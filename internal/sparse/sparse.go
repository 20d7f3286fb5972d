// Package sparse provides the compressed-sparse-row matrix and the
// distributed conjugate-gradient solver used as the application-level
// workload of the characterization (NAS CG-style: sparse matvec +
// allreduce dot products over the message-passing layer).
package sparse

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bytesview"
	"repro/internal/mp"
	"repro/internal/rng"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1
	ColIdx     []int // one column per entry of Val
	Val        []float64
}

// Validate checks structural invariants.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: rowptr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return errors.New("sparse: inconsistent CSR arrays")
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: rowptr not monotone at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] < 0 || m.ColIdx[k] >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", m.ColIdx[k], i)
			}
		}
	}
	return nil
}

// MatVec computes y = A*x.
func (m *CSR) MatVec(x, y []float64) error {
	if len(x) != m.Cols || len(y) != m.Rows {
		return errors.New("sparse: matvec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
	return nil
}

// RandomSPD builds an n x n symmetric positive-definite sparse matrix
// with roughly nnzPerRow off-diagonal entries per row: a random sparse
// S is made diagonally dominant (A = S + S^T pattern with |row sum| < diag),
// which guarantees SPD. Deterministic in seed.
func RandomSPD(n, nnzPerRow int, seed uint64) (*CSR, error) {
	if n <= 0 || nnzPerRow < 0 || nnzPerRow >= n {
		return nil, fmt.Errorf("sparse: bad SPD parameters n=%d nnz/row=%d", n, nnzPerRow)
	}
	s := rng.NewSplitMix64(seed)
	// Build a symmetric pattern in a dense-of-maps-free way: for each
	// row i pick nnzPerRow columns j > i, store both (i,j) and (j,i).
	entries := make([]map[int]float64, n)
	for i := range entries {
		entries[i] = make(map[int]float64, 2*nnzPerRow+1)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			j := int(s.Uint64() % uint64(n))
			if j == i {
				continue
			}
			v := s.Sym() // [-0.5, 0.5)
			entries[i][j] = v
			entries[j][i] = v
		}
	}
	// Assemble CSR with sorted columns, computing the diagonally
	// dominant diagonal (sum|offdiag| + 1) in sorted order so the
	// result is bit-for-bit deterministic (map iteration order must
	// not leak into float summation).
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		cols := make([]int, 0, len(entries[i])+1)
		for j := range entries[i] {
			cols = append(cols, j)
		}
		if _, hasDiag := entries[i][i]; !hasDiag {
			cols = append(cols, i)
		}
		insertionSort(cols)
		var off float64
		for _, j := range cols {
			if j != i {
				off += math.Abs(entries[i][j])
			}
		}
		for _, j := range cols {
			v := entries[i][j]
			if j == i {
				v = off + 1
			}
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m, nil
}

func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// RowSlice returns the CSR submatrix of rows [lo, hi) (shallow views
// into the parent arrays; RowPtr is rebased).
func (m *CSR) RowSlice(lo, hi int) (*CSR, error) {
	if lo < 0 || hi < lo || hi > m.Rows {
		return nil, fmt.Errorf("sparse: row slice [%d,%d) out of %d", lo, hi, m.Rows)
	}
	base := m.RowPtr[lo]
	ptr := make([]int, hi-lo+1)
	for i := range ptr {
		ptr[i] = m.RowPtr[lo+i] - base
	}
	return &CSR{
		Rows:   hi - lo,
		Cols:   m.Cols,
		RowPtr: ptr,
		ColIdx: m.ColIdx[base:m.RowPtr[hi]],
		Val:    m.Val[base:m.RowPtr[hi]],
	}, nil
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ||r||_2
	Converged  bool
}

// CG solves A x = b for SPD A with the (unpreconditioned) conjugate
// gradient method, serially. x is the initial guess and is overwritten.
func CG(a *CSR, b, x []float64, maxIter int, tol float64) (CGResult, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n || len(x) != n {
		return CGResult{}, errors.New("sparse: CG dimension mismatch")
	}
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	if err := a.MatVec(x, r); err != nil {
		return CGResult{}, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
		p[i] = r[i]
	}
	rr := dot(r, r)
	for it := 0; it < maxIter; it++ {
		if math.Sqrt(rr) < tol {
			return CGResult{Iterations: it, Residual: math.Sqrt(rr), Converged: true}, nil
		}
		if err := a.MatVec(p, ap); err != nil {
			return CGResult{}, err
		}
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return CGResult{Iterations: maxIter, Residual: math.Sqrt(rr), Converged: math.Sqrt(rr) < tol}, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// DistCG solves A x = b with conjugate gradient distributed by row
// blocks over the communicator: each rank owns rows [offset, offset+m)
// of A (aLocal), the matching slice of b, and returns its slice of x.
// The full iterate vector is reassembled each iteration with
// Allgatherv (the NAS-CG communication pattern); dot products use
// Allreduce. Row partition sizes may differ by rank (counts gives all
// of them, in rank order).
func DistCG(c *mp.Comm, aLocal *CSR, bLocal []float64, counts []int, maxIter int, tol float64) ([]float64, CGResult, error) {
	p := c.Size()
	if len(counts) != p {
		return nil, CGResult{}, fmt.Errorf("sparse: counts length %d, want %d", len(counts), p)
	}
	n := 0
	for _, cnt := range counts {
		n += cnt
	}
	m := counts[c.Rank()]
	if aLocal.Rows != m || aLocal.Cols != n || len(bLocal) != m {
		return nil, CGResult{}, errors.New("sparse: DistCG local dimension mismatch")
	}
	byteCounts := make([]int, p)
	for i, cnt := range counts {
		byteCounts[i] = cnt * 8
	}

	xLocal := make([]float64, m) // my slice of the solution
	xFull := make([]float64, n)  // assembled iterate
	r := make([]float64, m)      // local residual
	pLocal := make([]float64, m) // local direction
	pFull := make([]float64, n)  // assembled direction
	ap := make([]float64, m)

	allgather := func(local, full []float64) error {
		return c.Allgatherv(bytesview.F64(local), byteCounts, bytesview.F64(full))
	}
	dotAll := func(a, b []float64) (float64, error) {
		return c.AllreduceScalar(mp.OpSum, dot(a, b))
	}

	// r = b - A*x (x starts at 0, so r = b), p = r.
	copy(r, bLocal)
	copy(pLocal, r)
	rr, err := dotAll(r, r)
	if err != nil {
		return nil, CGResult{}, err
	}
	res := CGResult{}
	for it := 0; it < maxIter; it++ {
		if math.Sqrt(rr) < tol {
			res = CGResult{Iterations: it, Residual: math.Sqrt(rr), Converged: true}
			return xLocal, res, nil
		}
		if err := allgather(pLocal, pFull); err != nil {
			return nil, res, err
		}
		if err := aLocal.MatVec(pFull, ap); err != nil {
			return nil, res, err
		}
		pap, err := dotAll(pLocal, ap)
		if err != nil {
			return nil, res, err
		}
		alpha := rr / pap
		for i := range xLocal {
			xLocal[i] += alpha * pLocal[i]
			r[i] -= alpha * ap[i]
		}
		rrNew, err := dotAll(r, r)
		if err != nil {
			return nil, res, err
		}
		beta := rrNew / rr
		rr = rrNew
		for i := range pLocal {
			pLocal[i] = r[i] + beta*pLocal[i]
		}
	}
	_ = xFull
	return xLocal, CGResult{Iterations: maxIter, Residual: math.Sqrt(rr), Converged: math.Sqrt(rr) < tol}, nil
}
