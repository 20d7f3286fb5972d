// stencil-heat runs the distributed 2-D Jacobi heat-diffusion kernel
// (halo exchange each sweep, periodic residual reductions) on the
// simulated InfiniBand cluster, then renders the converged temperature
// field as ASCII art — a small end-to-end demo of domain decomposition
// on the message-passing runtime.
//
//	go run ./examples/stencil-heat
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/stencil"
)

func main() {
	const nx, ny = 32, 64
	const p = 8
	model := cluster.IBCluster()
	model.Placement = cluster.Cyclic

	err := mp.Run(p, mp.Config{Model: model}, func(c *mp.Comm) error {
		block, res, err := stencil.Jacobi(c, stencil.Config{
			NX: nx, NY: ny, Iters: 200000,
			CheckEvery: 100, Tol: 1e-6,
			ComputeRate: 1e9,
		})
		if err != nil {
			return err
		}
		full, err := stencil.Gather(c, block, nx, ny)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		fmt.Printf("Jacobi %dx%d on %d ranks: %d iterations, modeled %.2f ms, %.1f Mcells/s, converged=%v\n\n",
			nx, ny, p, res.Iters, res.Seconds*1e3, res.CellsPerS/1e6, res.Converged)
		shades := []byte(" .:-=+*#%@")
		for i := 0; i < nx; i += 2 { // halve vertical resolution for aspect
			row := make([]byte, ny)
			for j := 0; j < ny; j++ {
				v := full[i*ny+j]
				s := int(v * float64(len(shades)-1))
				if s < 0 {
					s = 0
				}
				if s >= len(shades) {
					s = len(shades) - 1
				}
				row[j] = shades[s]
			}
			fmt.Println(string(row))
		}
		fmt.Println("\n(top edge held at 1.0; heat diffuses toward the cold edges)")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
