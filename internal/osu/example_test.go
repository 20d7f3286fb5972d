package osu_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/osu"
)

// Broadcast under both algorithms on a modeled 64-node InfiniBand
// cluster, one rank per node, at a small and a large message size: the
// binomial tree wins small messages and scatter-allgather wins large
// ones — the textbook crossover experiment F6 maps fully.
func ExampleCollectiveLatency() {
	model := cluster.BigIBCluster()
	model.Placement = cluster.Cyclic // one rank per node
	const p = 32

	for _, size := range []int{64, 1 << 20} {
		fmt.Printf("broadcast of %d bytes across %d nodes:\n", size, p)
		for _, algo := range []struct {
			name string
			a    mp.BcastAlgo
		}{
			{"binomial tree     ", mp.BcastBinomial},
			{"scatter-allgather ", mp.BcastScatterAllgather},
		} {
			cfg := mp.Config{Model: model, Bcast: algo.a}
			var lat float64
			err := mp.Run(p, cfg, func(c *mp.Comm) error {
				buf := make([]byte, size)
				l, err := osu.CollectiveLatency(c, 3, 20, func() error {
					return c.Bcast(0, buf)
				})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					lat = l
				}
				return nil
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s %10.2f us\n", algo.name, lat*1e6)
		}
	}
	fmt.Println("\nsmall messages: the log2(p)-round tree wins;")
	fmt.Println("large messages: moving only 2x the data wins.")
	// Output:
	// broadcast of 64 bytes across 32 nodes:
	//   binomial tree            1.34 us
	//   scatter-allgather       42.73 us
	// broadcast of 1048576 bytes across 32 nodes:
	//   binomial tree         3508.61 us
	//   scatter-allgather     1486.71 us
	//
	// small messages: the log2(p)-round tree wins;
	// large messages: moving only 2x the data wins.
}
