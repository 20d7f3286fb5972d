package core

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/hpcc"
	"repro/internal/mp"
	"repro/internal/report"
)

func init() {
	register(Experiment{ID: "F8", Kind: "figure", Run: runF8, Needs: cluster.CapMultiNode,
		Title: "HPL GFLOP/s vs process count (strong + weak scaling)"})
	register(Experiment{ID: "F9", Kind: "figure", Run: runF9, Needs: cluster.CapMultiNode,
		Title: "RandomAccess GUPS vs process count"})
	register(Experiment{ID: "F10", Kind: "figure", Run: runF10, Needs: cluster.CapMultiNode,
		Title: "PTRANS bandwidth vs process count"})
	register(Experiment{ID: "F11", Kind: "figure", Run: runF11, Needs: cluster.CapMultiNode,
		Title: "Distributed FFT GFLOP/s vs transform size"})
	register(Experiment{ID: "T3", Kind: "table", Run: runT3, Needs: cluster.CapMultiNode,
		Title: "HPCC suite summary (IB platform, p=8)"})
	register(Experiment{ID: "F16", Kind: "figure", Run: runF16, Needs: cluster.CapMultiNode,
		Title: "HPL block-size (NB) ablation"})
}

func hpccProcs(s Scale) []int {
	if s == Full {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 4}
}

// hpccPlatforms resolves the scaling figures' platform axis: the two
// canonical fabrics, or the requested preset, cyclic-placed so one
// rank lands per node and the fabric dominates.
func hpccPlatforms(r Request) ([]*cluster.Model, error) {
	ms, err := platformsFor(r, "ib-8n", "gige-8n")
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		m.Placement = cluster.Cyclic
	}
	return ms, nil
}

func runF8(w io.Writer, r Request) error {
	ms, err := hpccPlatforms(r)
	if err != nil {
		return err
	}
	n := 192
	nb := 32
	if r.Scale == Full {
		n = 768
		nb = 64
	}
	fig := report.NewFigure(fmt.Sprintf("HPL scaling (strong: N=%d; weak: N grows as sqrt(p); NB=%d)", n, nb),
		"processes", "GFLOP/s")
	runOne := func(m *cluster.Model, p, order int) (float64, error) {
		return onRank0(p, mp.Config{Model: m}, func(c *mp.Comm) (float64, error) {
			res, err := hpcc.HPL(c, hpcc.HPLConfig{
				N: order, NB: nb, Seed: 7,
				ComputeRate: m.FlopsPerCore, SkipCheck: true,
			})
			return res.GFlops, err
		})
	}
	for _, m := range ms {
		strong := fig.AddSeries(m.Name + "/strong")
		weak := fig.AddSeries(m.Name + "/weak")
		for _, p := range hpccProcs(r.Scale) {
			if p > m.Topo.Nodes {
				continue
			}
			g, err := runOne(m, p, n)
			if err != nil {
				return fmt.Errorf("HPL strong %s p=%d: %w", m.Name, p, err)
			}
			strong.Add(float64(p), g)
			// Weak scaling: constant memory per rank, N ~ n*sqrt(p),
			// rounded to a multiple of NB.
			wn := int(float64(n)*math.Sqrt(float64(p))+0.5) / nb * nb
			g, err = runOne(m, p, wn)
			if err != nil {
				return fmt.Errorf("HPL weak %s p=%d: %w", m.Name, p, err)
			}
			weak.Add(float64(p), g)
		}
	}
	return fig.Fprint(w)
}

// runF16 ablates the HPL panel width: small NB means frequent
// small-panel broadcasts (latency-bound); large NB means poor
// load balance and a long unblocked panel factorization. The sweet spot
// in between is exactly the NB-tuning exercise every HPL run starts
// with.
func runF16(w io.Writer, r Request) error {
	ms, err := hpccPlatforms(r)
	if err != nil {
		return err
	}
	n := 256
	nbs := []int{8, 16, 32, 64, 128}
	if r.Scale == Full {
		n = 768
		nbs = []int{8, 16, 32, 64, 128, 256}
	}
	fig := report.NewFigure(fmt.Sprintf("HPL GFLOP/s vs block size (N=%d, p=4)", n),
		"NB", "GFLOP/s")
	for _, m := range ms {
		series := fig.AddSeries(m.Name)
		for _, nb := range nbs {
			g, err := onRank0(4, mp.Config{Model: m}, func(c *mp.Comm) (float64, error) {
				res, err := hpcc.HPL(c, hpcc.HPLConfig{
					N: n, NB: nb, Seed: 7, ComputeRate: m.FlopsPerCore, SkipCheck: true,
				})
				return res.GFlops, err
			})
			if err != nil {
				return fmt.Errorf("HPL %s NB=%d: %w", m.Name, nb, err)
			}
			series.Add(float64(nb), g)
		}
	}
	return fig.Fprint(w)
}

func runF9(w io.Writer, r Request) error {
	ms, err := hpccPlatforms(r)
	if err != nil {
		return err
	}
	bits := 12
	if r.Scale == Full {
		bits = 16
	}
	fig := report.NewFigure(fmt.Sprintf("RandomAccess GUPS vs processes (2^%d table)", bits),
		"processes", "GUPS")
	for _, m := range ms {
		series := fig.AddSeries(m.Name)
		for _, p := range hpccProcs(r.Scale) {
			if p&(p-1) != 0 || p > m.Topo.Nodes {
				continue
			}
			g, err := onRank0(p, mp.Config{Model: m}, func(c *mp.Comm) (float64, error) {
				res, err := hpcc.RandomAccess(c, hpcc.GUPSConfig{
					TableBits: bits, Chunk: 1024, ComputeRate: 2e8,
				})
				return res.GUPS, err
			})
			if err != nil {
				return fmt.Errorf("GUPS %s p=%d: %w", m.Name, p, err)
			}
			series.Add(float64(p), g)
		}
	}
	return fig.Fprint(w)
}

func runF10(w io.Writer, r Request) error {
	ms, err := hpccPlatforms(r)
	if err != nil {
		return err
	}
	n := 128
	if r.Scale == Full {
		n = 512
	}
	fig := report.NewFigure(fmt.Sprintf("PTRANS bandwidth vs processes (N=%d)", n),
		"processes", "GB/s")
	for _, m := range ms {
		series := fig.AddSeries(m.Name)
		for _, p := range hpccProcs(r.Scale) {
			if n%p != 0 || p > m.Topo.Nodes {
				continue
			}
			g, err := onRank0(p, mp.Config{Model: m}, func(c *mp.Comm) (float64, error) {
				res, err := hpcc.PTRANS(c, hpcc.PTRANSConfig{N: n, Seed: 5, MemRate: m.MemBWPerCore})
				return res.GBps, err
			})
			if err != nil {
				return fmt.Errorf("PTRANS %s p=%d: %w", m.Name, p, err)
			}
			series.Add(float64(p), g)
		}
	}
	return fig.Fprint(w)
}

func runF11(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "ib-8n")
	if err != nil {
		return err
	}
	m := ms[0]
	m.Placement = cluster.Cyclic
	fig := report.NewFigure(fmt.Sprintf("Distributed FFT (p=4, %s) vs transform size", m.Name),
		"points", "GFLOP/s")
	dims := [][2]int{{64, 64}, {128, 128}, {256, 256}}
	if r.Scale == Full {
		dims = append(dims, [2]int{512, 512}, [2]int{1024, 1024})
	}
	series := fig.AddSeries(m.Name)
	for _, d := range dims {
		g, err := onRank0(4, mp.Config{Model: m}, func(c *mp.Comm) (float64, error) {
			res, err := hpcc.DistFFT(c, hpcc.FFTConfig{
				N1: d[0], N2: d[1], Seed: 3, ComputeRate: m.FlopsPerCore / 4,
			})
			return res.GFlops, err
		})
		if err != nil {
			return fmt.Errorf("FFT %dx%d: %w", d[0], d[1], err)
		}
		series.Add(float64(d[0]*d[1]), g)
	}
	return fig.Fprint(w)
}

func runT3(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "ib-8n")
	if err != nil {
		return err
	}
	m := ms[0]
	p := 8
	if total := m.Topo.TotalCores(); p > total {
		p = total
	}
	hplN, bits, ptransN := 128, 12, 128
	fftD := 128
	if r.Scale == Full {
		hplN, bits, ptransN, fftD = 512, 16, 512, 512
	}
	t := report.NewTable(fmt.Sprintf("HPCC summary (%s, p=%d)", m.Name, p),
		"kernel", "metric", "value")

	type row struct{ hpl, gups, ptrans, fft, rnd, nat float64 }
	k, err := onRank0(p, mp.Config{Model: m}, func(c *mp.Comm) (row, error) {
		hpl, err := hpcc.HPL(c, hpcc.HPLConfig{
			N: hplN, NB: 32, Seed: 7, ComputeRate: m.FlopsPerCore, SkipCheck: true,
		})
		if err != nil {
			return row{}, err
		}
		g, err := hpcc.RandomAccess(c, hpcc.GUPSConfig{TableBits: bits, Chunk: 1024, ComputeRate: 2e8})
		if err != nil {
			return row{}, err
		}
		pt, err := hpcc.PTRANS(c, hpcc.PTRANSConfig{N: ptransN, Seed: 5, MemRate: m.MemBWPerCore})
		if err != nil {
			return row{}, err
		}
		ff, err := hpcc.DistFFT(c, hpcc.FFTConfig{N1: fftD, N2: fftD, Seed: 3, ComputeRate: m.FlopsPerCore / 4})
		if err != nil {
			return row{}, err
		}
		nat, err := hpcc.NaturalRing(c, 2048, 3, 20)
		if err != nil {
			return row{}, err
		}
		rnd, err := hpcc.RandomRing(c, 2048, 3, 20, 99)
		if err != nil {
			return row{}, err
		}
		return row{hpl.GFlops, g.GUPS, pt.GBps, ff.GFlops, rnd.Bandwidth / 1e6, nat.Bandwidth / 1e6}, nil
	})
	if err != nil {
		return err
	}
	t.AddRow("HPL", "GFLOP/s", k.hpl)
	t.AddRow("RandomAccess", "GUPS", k.gups)
	t.AddRow("PTRANS", "GB/s", k.ptrans)
	t.AddRow("FFT", "GFLOP/s", k.fft)
	t.AddRow("RandomRing", "MB/s", k.rnd)
	t.AddRow("NaturalRing", "MB/s", k.nat)

	// DGEMM and STREAM run on the host (real compute), one node's worth.
	dg, err := hpcc.DGEMM(hpcc.DGEMMConfig{N: dgemmN(r.Scale), Threads: runtime.GOMAXPROCS(0), Reps: 3, Seed: 1})
	if err != nil {
		return err
	}
	t.AddRow("DGEMM (host)", "GFLOP/s", dg.GFlops)
	return t.Fprint(w)
}

func dgemmN(s Scale) int {
	if s == Full {
		return 512
	}
	return 128
}
