// Quickstart: the smallest complete program on the message-passing
// runtime — launch 4 ranks on a one-node SMP model, exchange a
// point-to-point message, and run a collective.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mp"
)

func main() {
	err := mp.Run(4, mp.Config{Model: cluster.SMPNode()}, func(c *mp.Comm) error {
		// Point-to-point: rank 0 sends a greeting to rank 1.
		const tag = 1
		if c.Rank() == 0 {
			if err := c.Send(1, tag, []byte("hello from rank 0")); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			buf := make([]byte, 64)
			st, err := c.Recv(0, tag, buf)
			if err != nil {
				return err
			}
			fmt.Printf("rank 1 received %q (from %d, %d bytes)\n",
				buf[:st.Count], st.Source, st.Count)
		}

		// Collective: sum each rank's id across all ranks.
		sum, err := c.AllreduceScalar(mp.OpSum, float64(c.Rank()))
		if err != nil {
			return err
		}
		fmt.Printf("rank %d: allreduce sum of ranks = %.0f\n", c.Rank(), sum)
		return c.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
}
