package core

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/osu"
	"repro/internal/perfmodel"
	"repro/internal/report"
)

func init() {
	register(Experiment{ID: "F1", Kind: "figure", Run: runF1, Needs: cluster.CapMultiNode,
		Title: "Point-to-point latency vs message size, by path class"})
	register(Experiment{ID: "F2", Kind: "figure", Run: runF2, Needs: cluster.CapMultiNode,
		Title: "Point-to-point bandwidth vs message size"})
	register(Experiment{ID: "F3", Kind: "figure", Run: runF3, Needs: cluster.CapMultiNode,
		Title: "Bidirectional bandwidth vs message size"})
	register(Experiment{ID: "F4", Kind: "figure", Run: runF4, Needs: cluster.CapMultiNode,
		Title: "Multi-pair aggregate bandwidth (shared NIC saturation)"})
	register(Experiment{ID: "F12", Kind: "figure", Run: runF12, Needs: cluster.CapMultiNode,
		Title: "Eager vs rendezvous protocol crossover (ablation)"})
	register(Experiment{ID: "F13", Kind: "table", Run: runF13, Needs: cluster.CapMultiNode,
		Title: "LogGP parameters fitted from measurements vs configured truth"})
}

// sweepSizes returns the message-size sweep for a scale.
func sweepSizes(s Scale) []int {
	if s == Full {
		return osu.DefaultSizes()
	}
	return []int{0, 8, 256, 4096, 65536, 1 << 20}
}

func sweepOpts(s Scale) osu.Options {
	o := osu.Options{Sizes: sweepSizes(s), Warmup: 5, Iters: 50, Window: 32}
	if s == Full {
		o.Iters = 200
		o.Window = 64
	}
	return o
}

// pairModel returns a copy of m reshaped to the smallest machine on
// which block placement puts each pair (i, i+pairs) on path class pc.
// Only the inter-node shape reads pairs: 2 nodes × pairs cores, so every
// sender is on node 0, every receiver on node 1, and each sender owns
// 1/pairs of node 0's NIC. The intra-node shapes hold one pair. Links,
// memory and compute parameters are the preset's own. A pair measured
// there times exactly as it would among the same ranks inside m's full
// machine, because the fabric reads only the links of the pair's class,
// the number of the world's ranks on the sender's node and the Self
// link's per-byte copy cost.
func pairModel(m *cluster.Model, pc cluster.PathClass, pairs int) *cluster.Model {
	pm := *m
	pm.Placement = cluster.Block
	switch pc {
	case cluster.IntraSocket:
		pm.Topo = cluster.Topology{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 2}
	case cluster.IntraNode:
		pm.Topo = cluster.Topology{Nodes: 1, SocketsPerNode: 2, CoresPerSocket: 1}
	default:
		pm.Topo = cluster.Topology{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: pairs}
	}
	return &pm
}

// pathClassesOf returns the path classes a model actually has: a
// single-socket node collapses intra-node onto the fabric, so only
// multi-socket models get the intra-node pair.
func pathClassesOf(m *cluster.Model, classes []cluster.PathClass) []cluster.PathClass {
	var out []cluster.PathClass
	for _, pc := range classes {
		if pc == cluster.IntraNode && m.Topo.SocketsPerNode < 2 {
			continue
		}
		if pc == cluster.IntraSocket && m.Topo.CoresPerSocket < 2 {
			continue
		}
		out = append(out, pc)
	}
	return out
}

// runP2PCurve runs bench on the 2 × pairs ranks of cfg.Model's
// pairModel for class pc and returns the samples rank 0 measured. The
// rest of cfg (the eager threshold) applies unchanged.
func runP2PCurve(cfg mp.Config, pc cluster.PathClass, pairs int, opts osu.Options,
	bench func(*mp.Comm, osu.Options) ([]osu.Sample, error)) ([]osu.Sample, error) {

	cfg.Model = pairModel(cfg.Model, pc, pairs)
	return onRank0(2*pairs, cfg, func(c *mp.Comm) ([]osu.Sample, error) {
		return bench(c, opts)
	})
}

func runF1(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "ib-8n", "gige-8n")
	if err != nil {
		return err
	}
	fig := report.NewFigure("P2P latency vs message size", "bytes", "microseconds")
	for _, m := range ms {
		classes := []cluster.PathClass{cluster.IntraSocket, cluster.IntraNode, cluster.InterNode}
		for _, pc := range pathClassesOf(m, classes) {
			samples, err := runP2PCurve(mp.Config{Model: m}, pc, 1, sweepOpts(r.Scale), osu.Latency)
			if err != nil {
				return err
			}
			series := fig.AddSeries(fmt.Sprintf("%s/%s", m.Name, pc))
			for _, smp := range samples {
				series.Add(float64(smp.Size), smp.Value*1e6)
			}
		}
	}
	return fig.Fprint(w)
}

func runF2(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "ib-8n", "gige-8n")
	if err != nil {
		return err
	}
	fig := report.NewFigure("P2P bandwidth vs message size", "bytes", "MB/s")
	for _, m := range ms {
		classes := []cluster.PathClass{cluster.IntraSocket, cluster.InterNode}
		for _, pc := range pathClassesOf(m, classes) {
			samples, err := runP2PCurve(mp.Config{Model: m}, pc, 1, sweepOpts(r.Scale), osu.Bandwidth)
			if err != nil {
				return err
			}
			series := fig.AddSeries(fmt.Sprintf("%s/%s", m.Name, pc))
			for _, smp := range samples {
				series.Add(float64(smp.Size), smp.Value/1e6)
			}
		}
	}
	return fig.Fprint(w)
}

func runF3(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "ib-8n", "gige-8n")
	if err != nil {
		return err
	}
	fig := report.NewFigure("Bidirectional bandwidth vs message size", "bytes", "MB/s")
	for _, m := range ms {
		cfg := mp.Config{Model: m}
		uni, err := runP2PCurve(cfg, cluster.InterNode, 1, sweepOpts(r.Scale), osu.Bandwidth)
		if err != nil {
			return err
		}
		bi, err := runP2PCurve(cfg, cluster.InterNode, 1, sweepOpts(r.Scale), osu.BiBandwidth)
		if err != nil {
			return err
		}
		su := fig.AddSeries(m.Name + "/unidirectional")
		for _, smp := range uni {
			su.Add(float64(smp.Size), smp.Value/1e6)
		}
		sb := fig.AddSeries(m.Name + "/bidirectional")
		for _, smp := range bi {
			sb.Add(float64(smp.Size), smp.Value/1e6)
		}
	}
	return fig.Fprint(w)
}

func runF4(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "ib-8n")
	if err != nil {
		return err
	}
	cfg := mp.Config{Model: ms[0]}
	fig := report.NewFigure("Multi-pair aggregate bandwidth (senders share a NIC)",
		"pairs", "MB/s")
	sizes := []int{4096, 65536, 1 << 20}
	if r.Scale == Quick {
		sizes = []int{65536}
	}
	opts := osu.Options{Warmup: 2, Iters: 20, Window: 16}
	for _, size := range sizes {
		series := fig.AddSeries(fmt.Sprintf("msg=%dB", size))
		opts.Sizes = []int{size}
		for _, pairs := range []int{1, 2, 4} {
			s, err := runP2PCurve(cfg, cluster.InterNode, pairs, opts, osu.Bandwidth)
			if err != nil {
				return err
			}
			series.Add(float64(pairs), s[0].Value/1e6)
		}
	}
	return fig.Fprint(w)
}

func runF12(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "ib-8n")
	if err != nil {
		return err
	}
	m := ms[0]
	fig := report.NewFigure("Eager vs rendezvous latency (inter-node)", "bytes", "microseconds")
	sizes := []int{64, 1024, 8192, 65536, 262144, 1 << 20}
	if r.Scale == Full {
		sizes = nil
		for sz := 64; sz <= 4<<20; sz <<= 1 {
			sizes = append(sizes, sz)
		}
	}
	for _, mode := range []struct {
		name   string
		thresh int
	}{
		{"always-eager", 1 << 30},
		{"always-rendezvous", -1},
		{"default-8KiB", 0},
	} {
		opts := osu.Options{Sizes: sizes, Warmup: 3, Iters: 30, Window: 8}
		cfg := mp.Config{Model: m, EagerThreshold: mode.thresh}
		samples, err := runP2PCurve(cfg, cluster.InterNode, 1, opts, osu.Latency)
		if err != nil {
			return err
		}
		series := fig.AddSeries(mode.name)
		for _, smp := range samples {
			series.Add(float64(smp.Size), smp.Value*1e6)
		}
	}
	return fig.Fprint(w)
}

func runF13(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "gige-8n")
	if err != nil {
		return err
	}
	m := ms[0]
	cfg := mp.Config{Model: m}
	opts := sweepOpts(r.Scale)
	// Fit the latency model over the linear region only (small
	// messages are pure eager; keep within the eager threshold).
	var latSizes []int
	for _, sz := range opts.Sizes {
		if sz >= 8 && sz <= 8192 {
			latSizes = append(latSizes, sz)
		}
	}
	latOpts := opts
	latOpts.Sizes = latSizes
	lat, err := runP2PCurve(cfg, cluster.InterNode, 1, latOpts, osu.Latency)
	if err != nil {
		return err
	}
	bw, err := runP2PCurve(cfg, cluster.InterNode, 1, opts, osu.Bandwidth)
	if err != nil {
		return err
	}
	fit, err := perfmodel.FitLogGP(lat, bw)
	if err != nil {
		return err
	}
	truth := m.Links.InterNode
	t := report.NewTable(fmt.Sprintf("LogGP fit vs configured truth (%s inter-node)", m.Name),
		"parameter", "truth", "fitted", "rel.err")
	trueLat := truth.TransferTime(0)
	t.AddRow("L+2o (us)", trueLat*1e6, fit.LPlus2o*1e6, perfmodel.RelErr(fit.LPlus2o, trueLat))
	t.AddRow("G (ns/byte)", truth.GB*1e9, fit.G*1e9, perfmodel.RelErr(fit.G, truth.GB))
	t.AddRow("stream BW (MB/s)", truth.Bandwidth()/1e6, fit.GapBW/1e6, perfmodel.RelErr(fit.GapBW, truth.Bandwidth()))
	t.AddRow("fit R^2", 1.0, fit.R2, 0.0)
	return t.Fprint(w)
}
