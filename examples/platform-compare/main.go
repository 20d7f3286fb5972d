// platform-compare pits modeled fabrics against each other on
// latency- and bandwidth-sensitive workloads, one rank per node — a
// miniature of the T4 comparison table and the core question a
// platform characterization answers: which machine should this
// workload run on?
//
// The platforms come from internal/cluster's preset registry, so any
// multi-node preset can enter the comparison by name:
//
//	go run ./examples/platform-compare                 # gige-8n vs ib-8n
//	go run ./examples/platform-compare gige-8n bgp-64n # any presets
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/hpcc"
	"repro/internal/mp"
	"repro/internal/osu"
)

func main() {
	names := []string{"gige-8n", "ib-8n"}
	if len(os.Args) > 1 {
		names = os.Args[1:]
	}
	models := make([]*cluster.Model, len(names))
	for i, name := range names {
		m, ok := cluster.Lookup(name)
		if !ok {
			log.Fatalf("unknown platform %q (presets: %v)", name, cluster.Names())
		}
		if !m.Has(cluster.CapMultiNode) {
			log.Fatalf("platform %q has no inter-node fabric to compare (multi-node presets: %v)",
				name, cluster.NamesWith(cluster.CapMultiNode))
		}
		m.Placement = cluster.Cyclic
		models[i] = m
	}

	const p = 8
	fmt.Printf("%-28s", "workload")
	for _, name := range names {
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, metric := range []string{"8B latency (us)", "1MiB bandwidth (MB/s)", "RandomAccess (GUPS)"} {
		fmt.Printf("%-28s", metric)
		for _, m := range models {
			v, err := measure(m, p, metric)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %14.4f", v)
		}
		fmt.Println()
	}
	fmt.Println("\nlatency-bound kernels (GUPS) track the fabric's small-message")
	fmt.Println("latency; bandwidth-bound transfers track its wire speed.")
}

// measure runs one metric: the pair metrics on ranks 0 and 1, which
// cyclic placement puts on two nodes, and GUPS on p ranks.
func measure(m *cluster.Model, p int, metric string) (float64, error) {
	var out float64
	cfg := mp.Config{Model: m}
	if metric != "RandomAccess (GUPS)" {
		p = 2
	}
	err := mp.Run(p, cfg, func(c *mp.Comm) error {
		opts := osu.Options{Sizes: []int{8, 1 << 20}, Warmup: 5, Iters: 50, Window: 32}
		switch metric {
		case "8B latency (us)":
			s, err := osu.Latency(c, opts)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = s[0].Value * 1e6
			}
		case "1MiB bandwidth (MB/s)":
			s, err := osu.Bandwidth(c, opts)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = s[1].Value / 1e6
			}
		case "RandomAccess (GUPS)":
			r, err := hpcc.RandomAccess(c, hpcc.GUPSConfig{TableBits: 12, Chunk: 1024, ComputeRate: 2e8})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = r.GUPS
			}
		}
		return nil
	})
	return out, err
}
