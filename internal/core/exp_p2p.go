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
	register(Experiment{ID: "F1", Kind: "figure", Run: runF1, Needs: cluster.CapMultiNode, Rev: 1,
		Title: "Point-to-point latency vs message size, by path class"})
	register(Experiment{ID: "F2", Kind: "figure", Run: runF2, Needs: cluster.CapMultiNode, Rev: 1,
		Title: "Point-to-point bandwidth vs message size"})
	register(Experiment{ID: "F3", Kind: "figure", Run: runF3, Needs: cluster.CapMultiNode, Rev: 1,
		Title: "Bidirectional bandwidth vs message size"})
	register(Experiment{ID: "F4", Kind: "figure", Run: runF4, Needs: cluster.CapMultiNode,
		Title: "Multi-pair aggregate bandwidth (shared NIC saturation)"})
	register(Experiment{ID: "F12", Kind: "figure", Run: runF12, Needs: cluster.CapMultiNode, Rev: 1,
		Title: "Eager vs rendezvous protocol crossover (ablation)"})
	register(Experiment{ID: "F13", Kind: "table", Run: runF13, Needs: cluster.CapMultiNode, Rev: 1,
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

// pairForClass returns a rank pair of the given path class on the
// model under block placement.
func pairForClass(m *cluster.Model, n int, pc cluster.PathClass) (int, int) {
	switch pc {
	case cluster.IntraSocket:
		return 0, 1
	case cluster.IntraNode:
		return 0, m.Topo.CoresPerSocket
	default:
		return 0, n - 1
	}
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

// runP2PCurve runs bench inside an mp.Run on the model's full rank count
// and returns the samples the pair's first rank measured.
func runP2PCurve(m *cluster.Model, pairA, pairB int, opts osu.Options,
	bench func(*mp.Comm, osu.Options) ([]osu.Sample, error)) ([]osu.Sample, error) {

	n := m.Topo.TotalCores()
	opts.PairA, opts.PairB = pairA, pairB
	var out []osu.Sample
	cfg := mp.Config{Model: m}
	err := mp.Run(n, cfg, func(c *mp.Comm) error {
		s, err := bench(c, opts)
		if err != nil {
			return err
		}
		if c.Rank() == pairA {
			out = s
		}
		return nil
	})
	return out, err
}

func runF1(w io.Writer, r Request) error {
	ms, err := platformsFor(r, cluster.IBCluster, cluster.GigECluster)
	if err != nil {
		return err
	}
	fig := report.NewFigure("P2P latency vs message size", "bytes", "microseconds")
	for _, m := range ms {
		n := m.Topo.TotalCores()
		classes := []cluster.PathClass{cluster.IntraSocket, cluster.IntraNode, cluster.InterNode}
		for _, pc := range pathClassesOf(m, classes) {
			a, b := pairForClass(m, n, pc)
			samples, err := runP2PCurve(m, a, b, sweepOpts(r.Scale), osu.Latency)
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
	ms, err := platformsFor(r, cluster.IBCluster, cluster.GigECluster)
	if err != nil {
		return err
	}
	fig := report.NewFigure("P2P bandwidth vs message size", "bytes", "MB/s")
	for _, m := range ms {
		n := m.Topo.TotalCores()
		classes := []cluster.PathClass{cluster.IntraSocket, cluster.InterNode}
		for _, pc := range pathClassesOf(m, classes) {
			a, b := pairForClass(m, n, pc)
			samples, err := runP2PCurve(m, a, b, sweepOpts(r.Scale), osu.Bandwidth)
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
	ms, err := platformsFor(r, cluster.IBCluster, cluster.GigECluster)
	if err != nil {
		return err
	}
	fig := report.NewFigure("Bidirectional bandwidth vs message size", "bytes", "MB/s")
	for _, m := range ms {
		n := m.Topo.TotalCores()
		a, b := pairForClass(m, n, cluster.InterNode)
		uni, err := runP2PCurve(m, a, b, sweepOpts(r.Scale), osu.Bandwidth)
		if err != nil {
			return err
		}
		bi, err := runP2PCurve(m, a, b, sweepOpts(r.Scale), osu.BiBandwidth)
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

// narrowNode reshapes a platform to 4-core single-socket nodes so that
// a multi-pair run under block placement puts all senders on one node:
// their traffic shares one NIC, producing the saturation curve F4
// shows. The fabric and node parameters are the preset's own.
func narrowNode(m *cluster.Model) *cluster.Model {
	m.Name += "-narrow"
	m.Topo = cluster.Topology{Nodes: 8, SocketsPerNode: 1, CoresPerSocket: 4}
	return m
}

func runF4(w io.Writer, r Request) error {
	ms, err := platformsFor(r, cluster.IBCluster)
	if err != nil {
		return err
	}
	m := narrowNode(ms[0])
	fig := report.NewFigure("Multi-pair aggregate bandwidth (senders share a NIC)",
		"pairs", "MB/s")
	sizes := []int{4096, 65536, 1 << 20}
	if r.Scale == Quick {
		sizes = []int{65536}
	}
	for _, size := range sizes {
		series := fig.AddSeries(fmt.Sprintf("msg=%dB", size))
		for _, pairs := range []int{1, 2, 4} {
			opts := osu.Options{Sizes: []int{size}, Warmup: 2, Iters: 20, Window: 16}
			var agg float64
			cfg := mp.Config{Model: m}
			err := mp.Run(8, cfg, func(c *mp.Comm) error {
				r, err := osu.MultiPairBandwidth(c, pairs, opts)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					agg = r[0].Value
				}
				return nil
			})
			if err != nil {
				return err
			}
			series.Add(float64(pairs), agg/1e6)
		}
	}
	return fig.Fprint(w)
}

func runF12(w io.Writer, r Request) error {
	ms, err := platformsFor(r, cluster.IBCluster)
	if err != nil {
		return err
	}
	m := ms[0]
	n := m.Topo.TotalCores()
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
		opts := osu.Options{Sizes: sizes, Warmup: 3, Iters: 30, Window: 8,
			PairA: 0, PairB: n - 1}
		var samples []osu.Sample
		cfg := mp.Config{Model: m, EagerThreshold: mode.thresh}
		err := mp.Run(n, cfg, func(c *mp.Comm) error {
			sm, err := osu.Latency(c, opts)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				samples = sm
			}
			return nil
		})
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
	ms, err := platformsFor(r, cluster.GigECluster)
	if err != nil {
		return err
	}
	m := ms[0]
	n := m.Topo.TotalCores()
	a, b := pairForClass(m, n, cluster.InterNode)
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
	lat, err := runP2PCurve(m, a, b, latOpts, osu.Latency)
	if err != nil {
		return err
	}
	bw, err := runP2PCurve(m, a, b, opts, osu.Bandwidth)
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
