package core

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/osu"
	"repro/internal/report"
)

func init() {
	register(Experiment{ID: "F5", Kind: "figure", Run: runF5, Needs: cluster.CapMultiNode,
		Title: "Collective latency vs process count (bcast/allreduce/alltoall/barrier)"})
	register(Experiment{ID: "F6", Kind: "figure", Run: runF6, Needs: cluster.CapMultiNode,
		Title: "Collective algorithm comparison (ablation)"})
}

// collProcs returns the process-count sweep.
func collProcs(s Scale) []int {
	if s == Full {
		return []int{2, 4, 8, 16, 32, 64}
	}
	return []int{2, 4, 8, 16}
}

// collPlatform resolves the collective experiments' platform: the
// canonical 64-node IB model, or the requested preset, with cyclic
// placement either way so a p-rank job spreads one rank per node
// (wrapping onto further cores once p exceeds the node count) — the
// configuration collective-scaling studies use.
func collPlatform(r Request) (*cluster.Model, error) {
	ms, err := platformsFor(r, cluster.BigIBCluster)
	if err != nil {
		return nil, err
	}
	m := ms[0]
	m.Placement = cluster.Cyclic
	return m, nil
}

// measureColl runs one collective latency measurement at p ranks.
func measureColl(m *cluster.Model, p, warm, iters int, mk func(c *mp.Comm) func() error) (float64, error) {
	var lat float64
	cfg := mp.Config{Model: m}
	err := mp.Run(p, cfg, func(c *mp.Comm) error {
		l, err := osu.CollectiveLatency(c, warm, iters, mk(c))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			lat = l
		}
		return nil
	})
	return lat, err
}

func runF5(w io.Writer, r Request) error {
	m, err := collPlatform(r)
	if err != nil {
		return err
	}
	iters := 30
	if r.Scale == Full {
		iters = 100
	}
	fig := report.NewFigure(fmt.Sprintf("Collective latency vs process count (one rank/node, %s)", m.Name),
		"processes", "microseconds")

	type coll struct {
		name string
		mk   func(c *mp.Comm) func() error
	}
	small := 8
	large := 64 * 1024
	colls := []coll{
		{"barrier", func(c *mp.Comm) func() error {
			return func() error { return c.Barrier() }
		}},
		{fmt.Sprintf("bcast-%dB", small), func(c *mp.Comm) func() error {
			buf := make([]byte, small)
			return func() error { return c.Bcast(0, buf) }
		}},
		{fmt.Sprintf("bcast-%dB", large), func(c *mp.Comm) func() error {
			buf := make([]byte, large)
			return func() error { return c.Bcast(0, buf) }
		}},
		{fmt.Sprintf("allreduce-%dB", small), func(c *mp.Comm) func() error {
			in := make([]float64, small/8)
			out := make([]float64, small/8)
			return func() error { return c.Allreduce(mp.OpSum, in, out) }
		}},
		{fmt.Sprintf("allreduce-%dB", large), func(c *mp.Comm) func() error {
			in := make([]float64, large/8)
			out := make([]float64, large/8)
			return func() error { return c.Allreduce(mp.OpSum, in, out) }
		}},
		{"alltoall-1KiB", func(c *mp.Comm) func() error {
			sb := make([]byte, 1024*c.Size())
			rb := make([]byte, 1024*c.Size())
			return func() error { return c.Alltoall(sb, rb) }
		}},
	}
	for _, cl := range colls {
		series := fig.AddSeries(cl.name)
		for _, p := range collProcs(r.Scale) {
			if p > m.Topo.TotalCores() {
				continue
			}
			lat, err := measureColl(m, p, 5, iters, cl.mk)
			if err != nil {
				return fmt.Errorf("%s @ p=%d: %w", cl.name, p, err)
			}
			series.Add(float64(p), lat*1e6)
		}
	}
	return fig.Fprint(w)
}

func runF6(w io.Writer, r Request) error {
	m, err := collPlatform(r)
	if err != nil {
		return err
	}
	p := 16
	iters := 30
	sizes := []int{64, 4096, 65536, 1 << 20}
	if r.Scale == Full {
		p = 32
		iters = 100
		sizes = []int{8, 64, 512, 4096, 32768, 262144, 1 << 20, 4 << 20}
	}
	if total := m.Topo.TotalCores(); p > total {
		p = total
	}

	fig := report.NewFigure(fmt.Sprintf("Collective algorithms vs message size (p=%d, %s)", p, m.Name),
		"bytes", "microseconds")

	// Broadcast: binomial vs scatter-allgather.
	for _, algo := range []struct {
		name string
		a    mp.BcastAlgo
	}{
		{"bcast-binomial", mp.BcastBinomial},
		{"bcast-scatter-allgather", mp.BcastScatterAllgather},
		{"bcast-pipeline-ring", mp.BcastPipelineRing},
	} {
		series := fig.AddSeries(algo.name)
		for _, size := range sizes {
			var lat float64
			cfg := mp.Config{Model: m, Bcast: algo.a}
			err := mp.Run(p, cfg, func(c *mp.Comm) error {
				buf := make([]byte, size)
				l, err := osu.CollectiveLatency(c, 3, iters, func() error {
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
				return err
			}
			series.Add(float64(size), lat*1e6)
		}
	}

	// Allreduce: recursive doubling vs Rabenseifner vs ring.
	for _, algo := range []struct {
		name string
		a    mp.AllreduceAlgo
	}{
		{"allreduce-recdoubling", mp.AllreduceRecursiveDoubling},
		{"allreduce-rabenseifner", mp.AllreduceRabenseifner},
		{"allreduce-ring", mp.AllreduceRing},
	} {
		series := fig.AddSeries(algo.name)
		for _, size := range sizes {
			var lat float64
			cfg := mp.Config{Model: m, Allreduce: algo.a}
			err := mp.Run(p, cfg, func(c *mp.Comm) error {
				in := make([]float64, size/8+1)
				out := make([]float64, size/8+1)
				l, err := osu.CollectiveLatency(c, 3, iters, func() error {
					return c.Allreduce(mp.OpSum, in, out)
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
				return err
			}
			series.Add(float64(size), lat*1e6)
		}
	}
	return fig.Fprint(w)
}
