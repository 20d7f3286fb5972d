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
// placement either way so a p-rank job spreads one rank per node — the
// configuration collective-scaling studies use. Past the node count it
// wraps onto further cores: F6 allows that, F5 stops there.
func collPlatform(r Request) (*cluster.Model, error) {
	ms, err := platformsFor(r, cluster.BigIBCluster)
	if err != nil {
		return nil, err
	}
	m := ms[0]
	m.Placement = cluster.Cyclic
	return m, nil
}

// measureColl runs one collective latency measurement at p ranks. The
// collective mk builds runs size-only (osu.CollectiveLatency), so its
// buffers are slices of the shared mp.SizeOnlyBuf.
func measureColl(cfg mp.Config, p, warm, iters int, mk func(c *mp.Comm) func() error) (float64, error) {
	return onRank0(p, cfg, func(c *mp.Comm) (float64, error) {
		return osu.CollectiveLatency(c, warm, iters, mk(c))
	})
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
			buf := mp.SizeOnlyBuf[byte](small)
			return func() error { return c.Bcast(0, buf) }
		}},
		{fmt.Sprintf("bcast-%dB", large), func(c *mp.Comm) func() error {
			buf := mp.SizeOnlyBuf[byte](large)
			return func() error { return c.Bcast(0, buf) }
		}},
		{fmt.Sprintf("allreduce-%dB", small), func(c *mp.Comm) func() error {
			buf := mp.SizeOnlyBuf[float64](small / 8)
			return func() error { return c.Allreduce(mp.OpSum, buf, buf) }
		}},
		{fmt.Sprintf("allreduce-%dB", large), func(c *mp.Comm) func() error {
			buf := mp.SizeOnlyBuf[float64](large / 8)
			return func() error { return c.Allreduce(mp.OpSum, buf, buf) }
		}},
		{"alltoall-1KiB", func(c *mp.Comm) func() error {
			buf := mp.SizeOnlyBuf[byte](1024 * c.Size())
			return func() error { return c.Alltoall(buf, buf) }
		}},
	}
	for _, cl := range colls {
		series := fig.AddSeries(cl.name)
		for _, p := range collProcs(r.Scale) {
			if p > m.Topo.Nodes {
				continue // the caption promises one rank per node
			}
			lat, err := measureColl(mp.Config{Model: m}, p, 5, iters, cl.mk)
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
			lat, err := measureColl(mp.Config{Model: m, Bcast: algo.a}, p, 3, iters, func(c *mp.Comm) func() error {
				buf := mp.SizeOnlyBuf[byte](size)
				return func() error { return c.Bcast(0, buf) }
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
			lat, err := measureColl(mp.Config{Model: m, Allreduce: algo.a}, p, 3, iters, func(c *mp.Comm) func() error {
				buf := mp.SizeOnlyBuf[float64](size/8 + 1)
				return func() error { return c.Allreduce(mp.OpSum, buf, buf) }
			})
			if err != nil {
				return err
			}
			series.Add(float64(size), lat*1e6)
		}
	}
	return fig.Fprint(w)
}
