package sparse_test

import (
	"fmt"
	"log"
	"math"

	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/sparse"
)

// A distributed conjugate-gradient solve (the NAS-CG communication
// pattern: row-partitioned sparse matvec with Allgatherv, dot products
// with Allreduce) on both modeled fabrics, showing how the fabric
// changes time-to-solution — the application-level payoff of the
// platform characterization.
func ExampleDistCG() {
	const n = 1024
	const nnzPerRow = 6
	const p = 8

	a, err := sparse.RandomSPD(n, nnzPerRow, 2024)
	if err != nil {
		log.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i) / 7)
	}
	b := make([]float64, n)
	if err := a.MatVec(xTrue, b); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distributed CG: n=%d, %d nnz, p=%d ranks (one per node)\n\n", n, len(a.Val), p)
	for _, mk := range []func() *cluster.Model{cluster.GigECluster, cluster.IBCluster} {
		model := mk()
		model.Placement = cluster.Cyclic
		var elapsed float64
		var iters int
		var maxErr float64
		err := mp.Run(p, mp.Config{Model: model}, func(c *mp.Comm) error {
			counts := make([]int, p)
			for i := range counts {
				counts[i] = n / p
			}
			lo := c.Rank() * (n / p)
			hi := lo + counts[c.Rank()]
			aLoc, err := a.RowSlice(lo, hi)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := c.Time()
			xLoc, res, err := sparse.DistCG(c, aLoc, b[lo:hi], counts, 5*n, 1e-10)
			if err != nil {
				return err
			}
			dt := c.Time() - t0
			if !res.Converged {
				return fmt.Errorf("CG did not converge: %+v", res)
			}
			var worst float64
			for i := range xLoc {
				if e := math.Abs(xLoc[i] - xTrue[lo+i]); e > worst {
					worst = e
				}
			}
			werr, err := c.AllreduceScalar(mp.OpMax, worst)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				elapsed, iters, maxErr = dt, res.Iterations, werr
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s converged in %3d iterations, modeled time %8.3f ms, max err %.2e\n",
			model.Name, iters, elapsed*1e3, maxErr)
	}
	fmt.Println("\nCG iterations are allgather+allreduce bound: the GigE fabric's")
	fmt.Println("latency multiplies directly into time-to-solution.")
	// Output:
	// distributed CG: n=1024, 13240 nnz, p=8 ranks (one per node)
	//
	// gige-8n  converged in  26 iterations, modeled time   16.957 ms, max err 6.46e-12
	// ib-8n    converged in  26 iterations, modeled time    0.590 ms, max err 6.46e-12
	//
	// CG iterations are allgather+allreduce bound: the GigE fabric's
	// latency multiplies directly into time-to-solution.
}
