package mp_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mp"
)

// The smallest complete program on the message-passing runtime: launch
// 4 ranks on a one-node SMP model, exchange a point-to-point message,
// and run a collective. Ranks print concurrently, so the lines come in
// no fixed order.
func ExampleRun() {
	err := mp.Run(4, mp.Config{Model: cluster.SMPNode()}, func(c *mp.Comm) error {
		// Point-to-point: rank 0 sends a greeting to rank 1. A receive
		// names its source and tag exactly.
		const src, tag = 0, 1
		if c.Rank() == src {
			if err := c.Send(1, tag, []byte("hello from rank 0")); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			buf := make([]byte, 64)
			st, err := c.Recv(src, tag, buf)
			if err != nil {
				return err
			}
			fmt.Printf("rank 1 received %q (from %d, %d bytes)\n",
				buf[:st.Count], src, st.Count)
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
	// Unordered output:
	// rank 1 received "hello from rank 0" (from 0, 17 bytes)
	// rank 0: allreduce sum of ranks = 6
	// rank 1: allreduce sum of ranks = 6
	// rank 2: allreduce sum of ranks = 6
	// rank 3: allreduce sum of ranks = 6
}
