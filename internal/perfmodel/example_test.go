package perfmodel_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/report"
)

// The memory-hierarchy loop experiment M4 runs for every platform.
// First, what bgp-64n's analytic memory model claims: cache levels,
// TLB reach in both mapping modes, and the modeled latency of the same
// working set in each — it costs very different latency once it
// outruns the paged TLB reach, the study's point. Then the model's own
// big-memory ladder goes to the knee-point fit, which recovers the
// levels. `membench -fit` runs the same fit on a measured host ladder.
func ExampleFitHierarchy() {
	platform := cluster.Preset("bgp-64n")
	m := platform.Mem
	fmt.Printf("platform %s: %d cache levels, %s base pages, %s large pages\n",
		platform.Name, len(m.Levels), kib(m.PageBytes), kib(m.LargePageBytes))
	fmt.Printf("TLB: %d entries -> reach %s paged, %s big-memory\n\n",
		m.TLB.Entries,
		kib(m.WithMode(mem.Paged).TLBReach()),
		kib(m.WithMode(mem.BigMemory).TLBReach()))

	t := report.NewTable("Modeled latency by mapping mode",
		"working set", "paged (ns)", "bigmem (ns)", "paged/bigmem")
	for _, ws := range []int{64 << 10, 1 << 20, 64 << 20} {
		paged := m.WithMode(mem.Paged).LoadLatency(ws)
		big := m.WithMode(mem.BigMemory).LoadLatency(ws)
		t.AddRow(kib(ws), paged*1e9, big*1e9, paged/big)
	}
	check(t.Fprint(os.Stdout))

	big := m.WithMode(mem.BigMemory) // clean cache knees: TLB reach covers the sweep
	ladder := big.Ladder(4<<10, 64<<20, 4)
	fit, err := perfmodel.FitHierarchy(ladder, 3)
	check(err)
	fmt.Println()
	ft := report.NewTable("Knee-point fit vs configured truth",
		"level", "true capacity", "fitted capacity", "true ns", "fitted ns")
	for i, truth := range big.Levels {
		if i >= len(fit.Levels) {
			break
		}
		f := fit.Levels[i]
		ft.AddRow(truth.Name, kib(truth.Capacity), kib(f.Capacity),
			truth.Latency*1e9, f.Latency*1e9)
	}
	ft.AddRow("memory", "-", "-", big.MemLatency*1e9, fit.MemLatency*1e9)
	check(ft.Fprint(os.Stdout))
	fmt.Printf("fit R2 = %.4f\n", fit.R2)
	// Output:
	// platform bgp-64n: 2 cache levels, 4KiB base pages, 256MiB large pages
	// TLB: 64 entries -> reach 256KiB paged, 16GiB big-memory
	//
	// == Modeled latency by mapping mode ==
	// working set  paged (ns)  bigmem (ns)  paged/bigmem
	// -----------  ----------  -----------  ------------
	// 64KiB        41.9994     41.9994      1.0000
	// 1MiB         342.0       42.0000      8.1429
	// 64MiB        420.0       120.0        3.5000
	//
	// == Knee-point fit vs configured truth ==
	// level   true capacity  fitted capacity  true ns  fitted ns
	// ------  -------------  ---------------  -------  ---------
	// L1      32KiB          29.33KiB         4.7000   4.7000
	// L3      8MiB           7.336MiB         42.0000  42.0000
	// memory  -              -                120.0    120.0
	// fit R2 = 0.9902
}

// The NUMA placement loop experiment M5 runs. First, what the fat
// four-socket preset's NUMA model claims: local vs remote latency, and
// what each placement policy costs at growing working sets in both
// mapping modes — placement composes with the paged/big-memory axis.
// Then two ladders generated from the model under opposite placements
// go to the split fit, which recovers the local/remote split.
// Experiment M5 runs these steps for each NUMA preset;
// `membench -numa` measures the host's placement ladders.
func ExampleFitNUMASplit() {
	platform := cluster.Preset("fat-1n")
	m := platform.Mem
	fmt.Printf("platform %s: %d NUMA nodes, local %.0fns, remote %.0fns (ratio %.2f)\n\n",
		platform.Name, m.NUMA.Nodes,
		m.MemLatency*1e9, m.NUMA.RemoteLatency*1e9,
		m.NUMA.RemoteLatency/m.MemLatency)

	t := report.NewTable("Modeled latency by mapping mode and placement",
		"ws", "mode", "placement", "latency (ns)", "slowdown")
	for _, ws := range []int{256 << 10, 16 << 20, 1 << 30} {
		for _, mode := range []mem.Mode{mem.Paged, mem.BigMemory} {
			for _, p := range mem.Placements {
				t.AddRow(report.Bytes(ws), mode.String(), p.String(),
					m.Latency(ws, mode, p)*1e9,
					m.PlacementSlowdown(ws, mode, p))
			}
		}
	}
	check(t.Fprint(os.Stdout))
	fmt.Println()

	big := m.WithMode(mem.BigMemory) // pure memory plateaus: no TLB term
	maxBytes := 8 * big.Levels[len(big.Levels)-1].Capacity
	local := big.WithPlacement(mem.FirstTouch).Ladder(4<<10, maxBytes, 4)
	remote := big.WithPlacement(mem.Remote).Ladder(4<<10, maxBytes, 4)
	split, err := perfmodel.FitNUMASplit(local, remote, len(big.Levels)+1)
	check(err)
	ft := report.NewTable("Split recovered from placement ladders",
		"", "true", "fitted")
	ft.AddRow("local (ns)", m.MemLatency*1e9, split.Local*1e9)
	ft.AddRow("remote (ns)", m.NUMA.RemoteLatency*1e9, split.Remote*1e9)
	ft.AddRow("ratio", m.NUMA.RemoteLatency/m.MemLatency, split.Ratio)
	check(ft.Fprint(os.Stdout))
	fmt.Printf("fit R2 = %.4f\n", split.R2)
	// Output:
	// platform fat-1n: 4 NUMA nodes, local 85ns, remote 145ns (ratio 1.71)
	//
	// == Modeled latency by mapping mode and placement ==
	// ws      mode    placement    latency (ns)  slowdown
	// ------  ------  -----------  ------------  --------
	// 256KiB  paged   first-touch  5.2002        1.0000
	// 256KiB  paged   interleave   5.2002        1.0000
	// 256KiB  paged   remote       5.2002        1.0000
	// 256KiB  bigmem  first-touch  5.2002        1.0000
	// 256KiB  bigmem  interleave   5.2002        1.0000
	// 256KiB  bigmem  remote       5.2002        1.0000
	// 16MiB   paged   first-touch  110.0         1.0000
	// 16MiB   paged   interleave   177.5         1.6136
	// 16MiB   paged   remote       200.0         1.8182
	// 16MiB   bigmem  first-touch  85.0000       1.0000
	// 16MiB   bigmem  interleave   130.0         1.5294
	// 16MiB   bigmem  remote       145.0         1.7059
	// 1GiB    paged   first-touch  110.0         1.0000
	// 1GiB    paged   interleave   177.5         1.6136
	// 1GiB    paged   remote       200.0         1.8182
	// 1GiB    bigmem  first-touch  97.5000       1.0000
	// 1GiB    bigmem  interleave   153.8         1.5769
	// 1GiB    bigmem  remote       172.5         1.7692
	//
	// == Split recovered from placement ladders ==
	//              true     fitted
	// -----------  -------  -------
	// local (ns)   85.0000  85.0000
	// remote (ns)  145.0    145.0
	// ratio        1.7059   1.7059
	// fit R2 = 0.9942
}

// kib renders a byte count compactly in binary units.
func kib(b int) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.4gGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.4gMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.4gKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
