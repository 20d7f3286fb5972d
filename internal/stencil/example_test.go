package stencil_test

import (
	"fmt"
	"log"

	"repro/internal/bytesview"
	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/stencil"
)

// Distributed 2-D Jacobi heat diffusion (halo exchange each sweep,
// periodic residual reductions) on the modeled InfiniBand cluster,
// then the converged temperature field drawn in ASCII inside a frame —
// domain decomposition on the message-passing runtime end to end. Row
// blocks are contiguous, so one allgather assembles the field.
func ExampleJacobi() {
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
		full := make([]float64, nx*ny)
		if err := c.Allgather(bytesview.F64(block), bytesview.F64(full)); err != nil {
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
				s := int(full[i*ny+j] * float64(len(shades)-1))
				row[j] = shades[max(0, min(s, len(shades)-1))]
			}
			fmt.Printf("|%s|\n", row)
		}
		fmt.Println("\n(top edge held at 1.0; heat diffuses toward the cold edges)")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// Jacobi 32x64 on 8 ranks: 2400 iterations, modeled 8.19 ms, 75.0 Mcells/s, converged=true
	//
	// |@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@@|
	// | :=+**########%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%%########**+=: |
	// | .:-=+++*****######################################*****+++=-:. |
	// |  .:--==+++++**************************************+++++==--:.  |
	// |  ..::--====++++++++************************++++++++====--::..  |
	// |  ...::----======++++++++++++++++++++++++++++++======----::...  |
	// |   ...:::-----=============++++++++++=============-----:::...   |
	// |    ...::::--------==========================--------::::...    |
	// |    .....::::::----------------------------------::::::.....    |
	// |     ......::::::::::----------------------::::::::::......     |
	// |      ........::::::::::::::::::::::::::::::::::::........      |
	// |        ............::::::::::::::::::::::::............        |
	// |           ..........................................           |
	// |                  ............................                  |
	// |                                                                |
	// |                                                                |
	//
	// (top edge held at 1.0; heat diffuses toward the cold edges)
}
