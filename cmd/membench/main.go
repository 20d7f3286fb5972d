// Command membench probes the host memory hierarchy: a pointer-chase
// latency ladder over a working-set sweep, an optional TLB-stress sweep,
// and an optional knee-point fit that recovers cache level capacities
// and latencies from the measured ladder. With -model it instead (or
// additionally) evaluates a platform preset's analytic memory model and
// reports the fitted-vs-truth recovery, the standalone version of
// experiment M4. With -numa it runs the NUMA placement probe — pinned
// first-touch vs interleaved vs remote initialization on the host, or
// the modeled placement ladder and local/remote split recovery of a
// preset — the standalone version of experiments M5/M6.
//
// Usage:
//
//	membench                                # quick host ladder
//	membench -min 4K -max 256M -points 4 -fit
//	membench -tlb -tlbpages 65536
//	membench -model bgp-64n -mode paged
//	membench -numa -max 64M                 # host placement ladders + split fit
//	membench -model fat-1n -numa            # modeled placement table + split fit
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/report"
)

func main() {
	minFlag := flag.String("min", "4K", "smallest working set (bytes; K/M/G suffixes)")
	maxFlag := flag.String("max", "32M", "largest working set")
	points := flag.Int("points", 2, "sweep points per octave")
	stride := flag.Int("stride", 64, "bytes between chase slots")
	iters := flag.Int("iters", 1<<18, "dependent loads per timed trial")
	trials := flag.Int("trials", 3, "timed trials per point (best kept)")
	seed := flag.Uint64("seed", 1, "random-cycle seed")
	fit := flag.Bool("fit", false, "fit hierarchy levels to the measured ladder")
	maxLevels := flag.Int("levels", 3, "maximum cache levels the fit searches for")
	tlb := flag.Bool("tlb", false, "also run the TLB-stress sweep")
	tlbPages := flag.Int("tlbpages", 1<<14, "largest page count of the TLB sweep")
	pageBytes := flag.Int("page", 4096, "page size the TLB sweep strides by")
	modelName := flag.String("model", "", "evaluate a platform preset's memory model instead of the host (see -list)")
	modeFlag := flag.String("mode", "", "override the model's mapping mode: paged or bigmem")
	numa := flag.Bool("numa", false, "run the NUMA placement probe (host) or placement table (-model)")
	numaThreads := flag.Int("numa-threads", 0, "pinned team size for -numa (default: one worker per NUMA node)")
	list := flag.Bool("list", false, "list platform presets with memory models and exit")
	flag.Parse()

	if *list {
		names := cluster.NamesWith(cluster.CapMemModel)
		sort.Strings(names)
		for _, name := range names {
			preset, _ := cluster.Lookup(name)
			m := preset.Mem
			locality := "UMA"
			if m.NUMA.Nodes > 1 {
				locality = fmt.Sprintf("%d NUMA nodes", m.NUMA.Nodes)
			}
			fmt.Printf("%-10s %s mode, %d levels, TLB reach %s, %s\n",
				name, m.Mode, len(m.Levels), report.Bytes(m.TLBReach()), locality)
		}
		return
	}

	minBytes, err := parseSize(*minFlag)
	fail(err)
	maxBytes, err := parseSize(*maxFlag)
	fail(err)
	if maxBytes <= minBytes {
		fail(fmt.Errorf("-max %s not above -min %s", *maxFlag, *minFlag))
	}
	run(config{
		minBytes: minBytes, maxBytes: maxBytes, points: *points,
		stride: *stride, iters: *iters, trials: *trials, seed: *seed,
		fit: *fit, maxLevels: *maxLevels,
		tlb: *tlb, tlbPages: *tlbPages, pageBytes: *pageBytes,
		modelName: *modelName, mode: *modeFlag,
		numa: *numa, numaThreads: *numaThreads,
	})
}

type config struct {
	minBytes, maxBytes, points, stride, iters, trials int
	seed                                              uint64
	fit                                               bool
	maxLevels                                         int
	tlb                                               bool
	tlbPages, pageBytes                               int
	modelName, mode                                   string
	numa                                              bool
	numaThreads                                       int
}

func run(c config) {
	if c.modelName != "" {
		if c.numa {
			runModelNUMA(c)
			return
		}
		runModel(c)
		return
	}
	if c.numa {
		runHostNUMA(c)
		return
	}
	runHost(c)
}

// runHost measures the host: the ladder figure, the optional TLB sweep,
// and the optional hierarchy fit.
func runHost(c config) {
	samples, err := mem.Ladder(mem.LadderConfig{
		MinBytes: c.minBytes, MaxBytes: c.maxBytes, PointsPerOctave: c.points,
		Stride: c.stride, Iters: c.iters, Trials: c.trials, Seed: c.seed,
	})
	fail(err)
	fig := report.NewFigure("Pointer-chase latency ladder (host)", "working set (bytes)", "ns/access")
	s := fig.AddSeries("measured/host")
	for _, p := range samples {
		s.Add(float64(p.Bytes), p.Seconds*1e9)
	}
	fail(fig.Fprint(os.Stdout))

	if c.tlb {
		tl, err := mem.TLBStress(mem.TLBConfig{
			PageBytes: c.pageBytes, MinPages: 16, MaxPages: c.tlbPages,
			PointsPerOctave: c.points, Iters: c.iters, Trials: c.trials, Seed: c.seed,
		})
		fail(err)
		tfig := report.NewFigure("TLB stress (host)", "pages touched", "ns/access")
		ts := tfig.AddSeries(fmt.Sprintf("measured/%s-pages", report.Bytes(c.pageBytes)))
		for _, p := range tl {
			ts.Add(float64(p.Pages), p.Seconds*1e9)
		}
		fail(tfig.Fprint(os.Stdout))
	}

	if c.fit {
		h, err := perfmodel.FitHierarchy(samples, c.maxLevels)
		fail(err)
		t := report.NewTable("Fitted hierarchy (host)", "level", "capacity", "latency (ns)", "R2")
		for i, l := range h.Levels {
			t.AddRow(fmt.Sprintf("L%d", i+1), report.Bytes(l.Capacity), l.Latency*1e9, h.R2)
		}
		t.AddRow("memory", "-", h.MemLatency*1e9, h.R2)
		fail(t.Fprint(os.Stdout))
	}
}

// lookupModel resolves -model/-mode into a preset's memory model.
func lookupModel(c config) *mem.Model {
	preset, ok := cluster.Lookup(c.modelName)
	if !ok || preset.Mem == nil {
		fail(fmt.Errorf("unknown platform %q (use -list)", c.modelName))
	}
	m := preset.Mem
	switch c.mode {
	case "paged":
		m = m.WithMode(mem.Paged)
	case "bigmem":
		m = m.WithMode(mem.BigMemory)
	case "":
	default:
		fail(fmt.Errorf("unknown mode %q (want paged or bigmem)", c.mode))
	}
	return m
}

// runModel evaluates a preset's analytic model over the sweep, then
// fits it back and prints recovery error per level.
func runModel(c config) {
	m := lookupModel(c)

	samples := m.Ladder(c.minBytes, c.maxBytes, c.points)
	fig := report.NewFigure(
		fmt.Sprintf("Modeled latency ladder (%s, %s)", c.modelName, m.Mode),
		"working set (bytes)", "ns/access")
	s := fig.AddSeries("model/" + c.modelName)
	for _, p := range samples {
		s.Add(float64(p.Bytes), p.Seconds*1e9)
	}
	fail(fig.Fprint(os.Stdout))

	h, err := perfmodel.FitHierarchy(samples, len(m.Levels)+1)
	fail(err)
	if len(h.Levels) == 0 {
		fail(fmt.Errorf("no hierarchy levels recovered from [%s,%s]: widen the sweep past the model's knees",
			report.Bytes(c.minBytes), report.Bytes(c.maxBytes)))
	}
	t := report.NewTable("Fitted vs truth", "level", "true cap", "fit cap", "true ns", "fit ns", "R2")
	for _, truth := range m.Levels {
		var best perfmodel.FittedLevel
		bestErr := -1.0
		for _, f := range h.Levels {
			if e := perfmodel.RelErr(float64(f.Capacity), float64(truth.Capacity)); bestErr < 0 || e < bestErr {
				bestErr, best = e, f
			}
		}
		t.AddRow(truth.Name, report.Bytes(truth.Capacity), report.Bytes(best.Capacity),
			truth.Latency*1e9, best.Latency*1e9, h.R2)
	}
	t.AddRow("memory", "-", "-", m.MemLatency*1e9, h.MemLatency*1e9, h.R2)
	fail(t.Fprint(os.Stdout))
}

// runHostNUMA measures the host under the three placement policies —
// pages faulted in by a pinned team per policy, chased from one pinned
// worker — then recovers the local/remote split from the first-touch
// and remote ladders. On a UMA host the ladders coincide and the
// fitted ratio sits near 1.
func runHostNUMA(c config) {
	fig := report.NewFigure("NUMA placement latency ladder (host)",
		"working set (bytes)", "ns/access")
	ladders := map[mem.Placement][]mem.Sample{}
	for _, p := range mem.Placements {
		samples, err := mem.NUMALadder(mem.NUMALadderConfig{
			MinBytes: c.minBytes, MaxBytes: c.maxBytes, PointsPerOctave: c.points,
			Stride: c.stride, Iters: c.iters, Trials: c.trials, Seed: c.seed,
			Threads: c.numaThreads, Policy: p,
		})
		fail(err)
		ladders[p] = samples
		s := fig.AddSeries("measured/" + p.String())
		for _, pt := range samples {
			s.Add(float64(pt.Bytes), pt.Seconds*1e9)
		}
	}
	fail(fig.Fprint(os.Stdout))

	split, err := perfmodel.FitNUMASplit(ladders[mem.FirstTouch], ladders[mem.Remote], c.maxLevels)
	fail(err)
	t := report.NewTable("Fitted NUMA split (host)",
		"local (ns)", "remote (ns)", "ratio", "R2")
	t.AddRow(split.Local*1e9, split.Remote*1e9, split.Ratio, split.R2)
	fail(t.Fprint(os.Stdout))
}

// runModelNUMA prints a preset's modeled placement ladder and the
// local/remote split recovered from its own first-touch and remote
// ladders — the standalone version of experiment M5 for one platform.
func runModelNUMA(c config) {
	m := lookupModel(c)
	if m.NUMA.Nodes <= 1 {
		fail(fmt.Errorf("platform %q is UMA: no NUMA axis configured (try fat-1n or bgp-64n)", c.modelName))
	}

	t := report.NewTable(
		fmt.Sprintf("Modeled placement ladder (%s, %s)", c.modelName, m.Mode),
		"ws", "placement", "latency (ns)", "slowdown")
	for _, sz := range []int{1 << 20, 64 << 20, 1 << 30} {
		for _, p := range mem.Placements {
			t.AddRow(report.Bytes(sz), p.String(),
				m.Latency(sz, m.Mode, p)*1e9, m.PlacementSlowdown(sz, m.Mode, p))
		}
	}
	fail(t.Fprint(os.Stdout))

	split, err := perfmodel.FitNUMASplitFromModel(m, c.points)
	fail(err)
	ft := report.NewTable("Fitted NUMA split vs truth",
		"true local", "fit local", "true remote", "fit remote", "true ratio", "fit ratio", "R2")
	ft.AddRow(m.MemLatency*1e9, split.Local*1e9,
		m.NUMA.RemoteLatency*1e9, split.Remote*1e9,
		m.NUMA.RemoteLatency/m.MemLatency, split.Ratio, split.R2)
	fail(ft.Fprint(os.Stdout))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "membench: %v\n", err)
		os.Exit(1)
	}
}

// parseSize parses "4096", "4K", "32M", "1G" into bytes (binary units).
func parseSize(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := 1
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
	case 'M', 'm':
		mult = 1 << 20
	case 'G', 'g':
		mult = 1 << 30
	}
	if mult != 1 {
		s = s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
