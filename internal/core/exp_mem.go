package core

// The M-family: memory-hierarchy characterization, the latency-bound
// complement to the bandwidth-bound STREAM experiments. M1 and M2 are
// the ladder and TLB figures, M3 is the page-size / big-memory
// comparison table, and M4 closes the loop by fitting the analytic
// model's own ladder and reporting recovery error, mirroring the F13
// fitted-vs-truth pattern for LogGP. M5 and M6 add the NUMA axis: the
// placement latency ladder with local/remote split recovery (table)
// and the placement slowdown vs working set (figure). M3-M6 are purely
// modeled and therefore byte-deterministic; M1/M2 include host
// measurements. M1-M4 accept any preset with a memory model; M5/M6
// need the NUMA capability.

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/perfmodel"
	"repro/internal/report"
)

func init() {
	register(Experiment{ID: "M1", Kind: "figure", Run: runM1, Needs: cluster.CapMemModel,
		Title: "Pointer-chase latency ladder vs working set (measured + model)"})
	register(Experiment{ID: "M2", Kind: "figure", Run: runM2, Needs: cluster.CapMemModel,
		Title: "TLB stress: latency vs pages touched (measured + model modes)"})
	register(Experiment{ID: "M3", Kind: "table", Run: runM3, Needs: cluster.CapMemModel,
		Title: "Page-size / big-memory comparison (modeled latency and reach)"})
	register(Experiment{ID: "M4", Kind: "table", Run: runM4, Needs: cluster.CapMemModel,
		Title: "Memory model fitted-vs-truth (hierarchy recovery from ladders)"})
	register(Experiment{ID: "M5", Kind: "table", Run: runM5, Needs: cluster.CapNUMA,
		Title: "NUMA placement latency ladder with local/remote split recovery"})
	register(Experiment{ID: "M6", Kind: "figure", Run: runM6, Needs: cluster.CapNUMA,
		Title: "NUMA placement slowdown vs working set (modeled)"})
}

// memPlatforms resolves the M1-M4 platform axis. The canonical set is
// the commodity SMP node and the big-memory (BG/P-class) node — the
// study's central contrast.
func memPlatforms(r Request) ([]*cluster.Model, error) {
	return platformsFor(r, cluster.SMPNode, cluster.BGPRack)
}

// numaPlatforms resolves the placement experiments' platform axis. The
// canonical set is the presets with a multi-node NUMA structure — the
// fat four-socket node and the dual-controller BG/P node.
func numaPlatforms(r Request) ([]*cluster.Model, error) {
	return platformsFor(r, cluster.FatNUMANode, cluster.BGPRack)
}

// runM1 renders the latency ladder: a measured pointer-chase sweep on
// the host plus each modeled platform's analytic ladder.
func runM1(w io.Writer, r Request) error {
	ms, err := memPlatforms(r)
	if err != nil {
		return err
	}
	fig := report.NewFigure("Pointer-chase latency ladder", "working set (bytes)", "ns/access")

	cfg := mem.LadderConfig{MinBytes: 4 << 10, MaxBytes: 2 << 20,
		PointsPerOctave: 2, Iters: 1 << 14, Trials: 1}
	if r.Scale == Full {
		cfg = mem.LadderConfig{MinBytes: 4 << 10, MaxBytes: 256 << 20,
			PointsPerOctave: 4, Iters: 1 << 20, Trials: 3}
	}
	done := phase(w, "measure/ladder")
	measured, err := mem.Ladder(cfg)
	done()
	if err != nil {
		return err
	}
	msr := fig.AddSeries("measured/host")
	for _, p := range measured {
		msr.Add(float64(p.Bytes), p.Seconds*1e9)
	}

	for _, m := range ms {
		done := phase(w, "model/"+m.Name)
		maxBytes := 4 * m.Mem.Levels[len(m.Mem.Levels)-1].Capacity
		series := fig.AddSeries("model/" + m.Name)
		for _, p := range m.Mem.Ladder(4<<10, maxBytes, 4) {
			series.Add(float64(p.Bytes), p.Seconds*1e9)
		}
		done()
	}
	return fig.Fprint(w)
}

// runM2 renders the TLB figure: measured one-line-per-page latency on
// the host, and each platform model evaluated in both mapping modes so
// the paged-mode walk penalty past TLB reach is visible against the
// big-memory curve.
func runM2(w io.Writer, r Request) error {
	ms, err := memPlatforms(r)
	if err != nil {
		return err
	}
	fig := report.NewFigure("TLB stress latency", "working set (bytes)", "ns/access")

	cfg := mem.TLBConfig{MinPages: 16, MaxPages: 1 << 11, PointsPerOctave: 2,
		Iters: 1 << 13, Trials: 1}
	if r.Scale == Full {
		cfg = mem.TLBConfig{MinPages: 16, MaxPages: 1 << 16, PointsPerOctave: 4,
			Iters: 1 << 19, Trials: 3}
	}
	done := phase(w, "measure/tlb")
	measured, err := mem.TLBStress(cfg)
	done()
	if err != nil {
		return err
	}
	msr := fig.AddSeries("measured/host-4KiB-pages")
	for _, p := range measured {
		msr.Add(float64(p.Pages*4096), p.Seconds*1e9)
	}

	for _, m := range ms {
		done := phase(w, "model/"+m.Name)
		for _, mode := range []mem.Mode{mem.Paged, mem.BigMemory} {
			mm := m.Mem.WithMode(mode)
			// Sweep past the paged-mode reach so the knee shows.
			maxBytes := 16 * m.Mem.WithMode(mem.Paged).TLBReach()
			series := fig.AddSeries(fmt.Sprintf("model/%s/%s", m.Name, mode))
			for _, p := range mm.Ladder(64<<10, maxBytes, 4) {
				series.Add(float64(p.Bytes), p.Seconds*1e9)
			}
		}
		done()
	}
	return fig.Fprint(w)
}

// runM3 tabulates what the mapping mode buys on each platform: page
// size, TLB reach, modeled steady-state latency at representative
// working sets, the paged-over-bigmem slowdown, and the one-time
// demand-paging cost of first touch.
func runM3(w io.Writer, r Request) error {
	ms, err := memPlatforms(r)
	if err != nil {
		return err
	}
	t := report.NewTable("Page-size / big-memory comparison",
		"platform", "mode", "page", "TLB reach", "ws", "latency (ns)",
		"slowdown", "first-touch (ms)")
	workingSets := []int{1 << 20, 64 << 20, 1 << 30}
	for _, m := range ms {
		for _, ws := range workingSets {
			big := m.Mem.WithMode(mem.BigMemory)
			for _, mode := range []mem.Mode{mem.Paged, mem.BigMemory} {
				mm := m.Mem.WithMode(mode)
				lat := mm.LoadLatency(ws)
				t.AddRow(m.Name, mode.String(),
					report.Bytes(mm.PageSize()), report.Bytes(mm.TLBReach()), report.Bytes(ws),
					lat*1e9, lat/big.LoadLatency(ws), mm.FirstTouchCost(ws)*1e3)
			}
		}
	}
	return t.Fprint(w)
}

// runM4 generates a ladder from each platform's analytic model (in
// big-memory mode, so TLB cost does not blur the cache knees), fits the
// hierarchy back with perfmodel.FitHierarchy, and tabulates recovered
// vs configured capacity and latency per level — the M-family analogue
// of F13.
func runM4(w io.Writer, r Request) error {
	ms, err := memPlatforms(r)
	if err != nil {
		return err
	}
	ppo := 4
	if r.Scale == Full {
		ppo = 8
	}
	t := report.NewTable("Hierarchy fit vs model truth",
		"platform", "level", "true cap", "fit cap", "cap err %",
		"true ns", "fit ns", "lat err %", "R2")
	for _, m := range ms {
		done := phase(w, "fit/"+m.Name)
		mm := m.Mem.WithMode(mem.BigMemory)
		maxBytes := 8 * mm.Levels[len(mm.Levels)-1].Capacity
		fit, err := perfmodel.FitHierarchy(mm.Ladder(4<<10, maxBytes, ppo), len(mm.Levels)+1)
		done()
		if err != nil {
			return fmt.Errorf("fit %s: %w", m.Name, err)
		}
		for _, truth := range mm.Levels {
			// Match each true level to the nearest recovered capacity.
			var bestFit perfmodel.FittedLevel
			bestErr := -1.0
			for _, f := range fit.Levels {
				if e := perfmodel.RelErr(float64(f.Capacity), float64(truth.Capacity)); bestErr < 0 || e < bestErr {
					bestErr, bestFit = e, f
				}
			}
			if bestErr < 0 {
				return fmt.Errorf("fit %s: no levels recovered", m.Name)
			}
			t.AddRow(m.Name, truth.Name,
				report.Bytes(truth.Capacity), report.Bytes(bestFit.Capacity), bestErr*100,
				truth.Latency*1e9, bestFit.Latency*1e9,
				perfmodel.RelErr(bestFit.Latency, truth.Latency)*100, fit.R2)
		}
		t.AddRow(m.Name, "memory", "-", "-", "-",
			mm.MemLatency*1e9, fit.MemLatency*1e9,
			perfmodel.RelErr(fit.MemLatency, mm.MemLatency)*100, fit.R2)
	}
	return t.Fprint(w)
}

// runM5 tabulates what page placement costs on each NUMA platform —
// modeled latency and slowdown per (mode, working set, placement) —
// then closes the loop like M4: a first-touch and a remote ladder are
// generated from each model and perfmodel.FitNUMASplit recovers the
// local/remote memory-latency split, compared against configured truth.
func runM5(w io.Writer, r Request) error {
	ms, err := numaPlatforms(r)
	if err != nil {
		return err
	}
	t := report.NewTable("NUMA placement latency ladder",
		"platform", "mode", "ws", "placement", "latency (ns)", "slowdown")
	workingSets := []int{1 << 20, 64 << 20, 1 << 30}
	for _, m := range ms {
		for _, mode := range []mem.Mode{mem.Paged, mem.BigMemory} {
			for _, ws := range workingSets {
				for _, p := range mem.Placements {
					t.AddRow(m.Name, mode.String(), report.Bytes(ws), p.String(),
						m.Mem.Latency(ws, mode, p)*1e9,
						m.Mem.PlacementSlowdown(ws, mode, p))
				}
			}
		}
	}
	if err := t.Fprint(w); err != nil {
		return err
	}

	ppo := 4
	if r.Scale == Full {
		ppo = 8
	}
	ft := report.NewTable("NUMA split fitted vs truth",
		"platform", "true local", "fit local", "true remote", "fit remote",
		"true ratio", "fit ratio", "R2")
	for _, m := range ms {
		// Big-memory mode, so no TLB term blurs the memory plateaus;
		// the sweep runs to 8x the last cache level.
		done := phase(w, "fit/"+m.Name)
		big := m.Mem.WithMode(mem.BigMemory)
		maxBytes := 8 * big.Levels[len(big.Levels)-1].Capacity
		local := big.WithPlacement(mem.FirstTouch).Ladder(4<<10, maxBytes, ppo)
		remote := big.WithPlacement(mem.Remote).Ladder(4<<10, maxBytes, ppo)
		split, err := perfmodel.FitNUMASplit(local, remote, len(big.Levels)+1)
		done()
		if err != nil {
			return fmt.Errorf("numa split %s: %w", m.Name, err)
		}
		trueRatio := m.Mem.NUMA.RemoteLatency / m.Mem.MemLatency
		ft.AddRow(m.Name,
			m.Mem.MemLatency*1e9, split.Local*1e9,
			m.Mem.NUMA.RemoteLatency*1e9, split.Remote*1e9,
			trueRatio, split.Ratio, split.R2)
	}
	return ft.Fprint(w)
}

// runM6 renders the placement slowdown curve: for each NUMA platform
// in its default mapping mode, the interleave and remote slowdown
// relative to first-touch as the working set grows. Cache-resident
// sets sit at 1; the curves rise through the capacity knees toward the
// placement's memory-latency ratio.
func runM6(w io.Writer, r Request) error {
	ms, err := numaPlatforms(r)
	if err != nil {
		return err
	}
	fig := report.NewFigure("NUMA placement slowdown",
		"working set (bytes)", "slowdown vs first-touch")
	ppo := 2
	if r.Scale == Full {
		ppo = 4
	}
	for _, m := range ms {
		mm := m.Mem
		maxBytes := 16 * mm.Levels[len(mm.Levels)-1].Capacity
		for _, p := range []mem.Placement{mem.Interleave, mem.Remote} {
			series := fig.AddSeries(fmt.Sprintf("%s/%s/%s", m.Name, mm.Mode, p))
			for _, sz := range mem.SweepSizes(4<<10, maxBytes, ppo, 64) {
				series.Add(float64(sz), mm.PlacementSlowdown(sz, mm.Mode, p))
			}
		}
	}
	return fig.Fprint(w)
}
