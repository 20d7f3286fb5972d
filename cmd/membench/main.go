// Command membench probes the host memory hierarchy: a pointer-chase
// latency ladder over a working-set sweep, an optional TLB-stress sweep,
// and an optional knee-point fit that recovers cache level capacities
// and latencies from the measured ladder. With -numa it runs the NUMA
// placement probe instead: pinned first-touch vs interleaved vs remote
// initialization on the host, and the local/remote split fitted from
// the first-touch and remote ladders.
//
// membench measures only the host. A preset's analytic memory model is
// served by the registry: charhpc -platform P M1 renders its modeled
// ladder, M2 its TLB sweep in both mapping modes, M4 the fit against
// truth, and M5 the placement table and split.
//
// Usage:
//
//	membench                                # quick host ladder
//	membench -min 4K -max 256M -points 4 -fit
//	membench -tlb -tlbpages 65536
//	membench -numa -max 64M                 # host placement ladders + split fit
//
// -numa replaces the ladder, so it does not combine with -fit or -tlb;
// asking for both is a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

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
	numa := flag.Bool("numa", false, "run the NUMA placement probe instead of the ladder")
	numaThreads := flag.Int("numa-threads", 0, "pinned team size for -numa (default: one worker per NUMA node)")
	flag.Parse()

	minBytes, err := parseSize(*minFlag)
	fail(err)
	maxBytes, err := parseSize(*maxFlag)
	fail(err)
	if maxBytes <= minBytes {
		fail(fmt.Errorf("-max %s not above -min %s", *maxFlag, *minFlag))
	}
	if *numa && (*fit || *tlb) {
		fail(errors.New("-numa runs instead of the ladder: it does not combine with -fit or -tlb"))
	}
	run(config{
		minBytes: minBytes, maxBytes: maxBytes, points: *points,
		stride: *stride, iters: *iters, trials: *trials, seed: *seed,
		fit: *fit, maxLevels: *maxLevels,
		tlb: *tlb, tlbPages: *tlbPages, pageBytes: *pageBytes,
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
	numa                                              bool
	numaThreads                                       int
}

func run(c config) {
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
	digits := s
	if mult != 1 {
		digits = s[:len(s)-1]
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n <= 0 || n > math.MaxInt/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
