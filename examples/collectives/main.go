// collectives demonstrates the collective algorithms and their
// trade-offs on a simulated 64-node InfiniBand cluster: it times
// broadcast under both algorithms at a small and a large message size,
// showing the binomial tree winning small messages and
// scatter-allgather winning large ones — the textbook crossover the F6
// experiment maps fully.
//
//	go run ./examples/collectives
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/osu"
)

func main() {
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
}
