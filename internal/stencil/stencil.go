// Package stencil implements a 2-D Jacobi heat-diffusion kernel with
// 1-D row-block domain decomposition and halo exchange — the canonical
// nearest-neighbour workload of platform characterizations (the
// communication pattern of NAS MG/BT-class codes). Each iteration every
// rank exchanges one grid row with each neighbour (SendRecv) and
// optionally joins a global residual reduction, so the kernel's fabric
// sensitivity sits between EP's (none) and CG's (collective-per-
// iteration).
package stencil

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bytesview"
	"repro/internal/mp"
)

// Config configures a Jacobi run.
type Config struct {
	// NX, NY are the global grid dimensions (rows x cols), boundary
	// included. NX must be divisible by the rank count.
	NX, NY int
	// Iters is the iteration count.
	Iters int
	// CheckEvery joins a global residual allreduce every k iterations
	// (0 disables convergence checking).
	CheckEvery int
	// Tol stops early when the global max update falls below it
	// (only checked on CheckEvery boundaries).
	Tol float64
	// ComputeRate, if positive, charges cells/ComputeRate seconds of
	// virtual time per sweep on the Sim fabric.
	ComputeRate float64
}

// Result reports a Jacobi run.
type Result struct {
	Iters     int // iterations actually executed
	Seconds   float64
	CellsPerS float64 // interior cell updates per second
	LastDelta float64 // last measured global max update (-1 if unchecked)
	Converged bool
	HaloBytes int64 // total halo traffic this rank sent
}

// boundary returns the fixed boundary value at global position (i, j):
// the top edge is held at 1, the other edges at 0 — an asymmetric
// steady state that catches indexing errors.
func boundary(i, j, nx, ny int) float64 {
	if i == 0 {
		return 1
	}
	return 0
}

// Serial runs the same Jacobi iteration on one grid, as the reference
// for verification. Returns the final grid in row-major order.
func Serial(nx, ny, iters int) []float64 {
	cur := make([]float64, nx*ny)
	next := make([]float64, nx*ny)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if i == 0 || i == nx-1 || j == 0 || j == ny-1 {
				cur[i*ny+j] = boundary(i, j, nx, ny)
				next[i*ny+j] = cur[i*ny+j]
			}
		}
	}
	for it := 0; it < iters; it++ {
		for i := 1; i < nx-1; i++ {
			for j := 1; j < ny-1; j++ {
				next[i*ny+j] = 0.25 * (cur[(i-1)*ny+j] + cur[(i+1)*ny+j] +
					cur[i*ny+j-1] + cur[i*ny+j+1])
			}
		}
		cur, next = next, cur
	}
	return cur
}

// Jacobi runs the distributed kernel and returns this rank's block of
// the final grid (rows [rank*NX/p, (rank+1)*NX/p), all NY columns) plus
// the run metrics.
func Jacobi(c *mp.Comm, cfg Config) ([]float64, Result, error) {
	p := c.Size()
	nx, ny := cfg.NX, cfg.NY
	if nx < 2 || ny < 2 {
		return nil, Result{}, fmt.Errorf("stencil: grid %dx%d too small", nx, ny)
	}
	if nx%p != 0 {
		return nil, Result{}, fmt.Errorf("stencil: NX %d not divisible by %d ranks", nx, p)
	}
	if cfg.Iters < 0 {
		return nil, Result{}, errors.New("stencil: negative iteration count")
	}
	rows := nx / p
	r0 := c.Rank() * rows
	up := c.Rank() - 1   // owns rows above
	down := c.Rank() + 1 // owns rows below

	// Local storage with one ghost row on each side: rows+2 x ny.
	cur := make([]float64, (rows+2)*ny)
	next := make([]float64, (rows+2)*ny)
	idx := func(i, j int) int { return (i+1)*ny + j } // i in [-1, rows]
	for i := 0; i < rows; i++ {
		gi := r0 + i
		for j := 0; j < ny; j++ {
			if gi == 0 || gi == nx-1 || j == 0 || j == ny-1 {
				v := boundary(gi, j, nx, ny)
				cur[idx(i, j)] = v
				next[idx(i, j)] = v
			}
		}
	}

	const haloTag = 7400
	var haloBytes int64
	res := Result{LastDelta: -1}
	if err := c.Barrier(); err != nil {
		return nil, res, err
	}
	t0 := c.Time()

	iters := 0
	for it := 0; it < cfg.Iters; it++ {
		// Halo exchange: send my top row up / bottom row down, receive
		// the neighbours' adjacent rows into the ghost rows. Tags are
		// direction-tagged (haloTag = upward traffic, haloTag+1 =
		// downward), so rank r's up-exchange pairs with rank r-1's
		// down-exchange.
		if up >= 0 {
			sendRow := cur[idx(0, 0):idx(0, ny)]
			recvRow := cur[idx(-1, 0):idx(-1, ny)]
			if _, err := c.SendRecv(up, haloTag, bytesview.F64(sendRow), up, haloTag+1, bytesview.F64(recvRow)); err != nil {
				return nil, res, fmt.Errorf("stencil: halo up: %w", err)
			}
			haloBytes += int64(ny * 8)
		}
		if down < p {
			sendRow := cur[idx(rows-1, 0):idx(rows-1, ny)]
			recvRow := cur[idx(rows, 0):idx(rows, ny)]
			if _, err := c.SendRecv(down, haloTag+1, bytesview.F64(sendRow), down, haloTag, bytesview.F64(recvRow)); err != nil {
				return nil, res, fmt.Errorf("stencil: halo down: %w", err)
			}
			haloBytes += int64(ny * 8)
		}

		// Sweep the interior (skipping global boundary rows/cols).
		var delta float64
		for i := 0; i < rows; i++ {
			gi := r0 + i
			if gi == 0 || gi == nx-1 {
				continue
			}
			for j := 1; j < ny-1; j++ {
				v := 0.25 * (cur[idx(i-1, j)] + cur[idx(i+1, j)] +
					cur[idx(i, j-1)] + cur[idx(i, j+1)])
				if d := math.Abs(v - cur[idx(i, j)]); d > delta {
					delta = d
				}
				next[idx(i, j)] = v
			}
		}
		// Boundary columns/rows carry over.
		cur, next = next, cur
		if cfg.ComputeRate > 0 {
			c.Compute(float64(rows*ny) / cfg.ComputeRate)
		}
		iters++

		if cfg.CheckEvery > 0 && (it+1)%cfg.CheckEvery == 0 {
			global, err := c.AllreduceScalar(mp.OpMax, delta)
			if err != nil {
				return nil, res, err
			}
			res.LastDelta = global
			if cfg.Tol > 0 && global < cfg.Tol {
				res.Converged = true
				break
			}
		}
	}

	if err := c.Barrier(); err != nil {
		return nil, res, err
	}
	res.Iters = iters
	res.Seconds = c.Time() - t0
	res.HaloBytes = haloBytes
	if res.Seconds > 0 {
		res.CellsPerS = float64(iters) * float64(rows*ny) / res.Seconds
	}

	// Strip the ghost rows for the returned block.
	out := make([]float64, rows*ny)
	for i := 0; i < rows; i++ {
		copy(out[i*ny:(i+1)*ny], cur[idx(i, 0):idx(i, ny)])
	}
	return out, res, nil
}
