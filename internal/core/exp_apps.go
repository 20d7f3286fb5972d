package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/mp"
	"repro/internal/nas"
	"repro/internal/osu"
	"repro/internal/report"
	"repro/internal/sparse"
	"repro/internal/stencil"
)

func init() {
	register(Experiment{ID: "F14", Kind: "figure", Run: runF14, Needs: cluster.CapMultiNode,
		Title: "Rank placement ablation: block vs cyclic latency distribution"})
	register(Experiment{ID: "F15", Kind: "table", Run: runF15, Needs: cluster.CapMultiNode,
		Title: "Application kernels (EP, IS, stencil, CG) across fabrics"})
}

// runF14 measures the p2p latency between consecutive rank pairs under
// both placement policies: block placement keeps neighbours on-node
// (until the node boundary), cyclic forces every pair off-node. The
// same job, placed differently, sees a different latency distribution —
// the placement lever every MPI launcher exposes. Each pair is placed
// in the full machine and measured on the two-rank world of its path
// class.
func runF14(w io.Writer, r Request) error {
	iters := 30
	if r.Scale == Full {
		iters = 200
	}
	ms, err := platformsFor(r, cluster.IBCluster)
	if err != nil {
		return err
	}
	m := ms[0]
	fig := report.NewFigure("8B latency between ranks (r, r+1), by placement",
		"first rank of pair", "microseconds")
	cfg := mp.Config{Model: m}
	opts := osu.Options{Sizes: []int{8}, Warmup: 3, Iters: iters, Window: 8}
	n := m.Topo.TotalCores()
	for _, placement := range []cluster.Placement{cluster.Block, cluster.Cyclic} {
		series := fig.AddSeries(m.Name + "/" + placement.String())
		step := 3
		if r.Scale == Full {
			step = 1
		}
		for a := 0; a+1 < n; a += step {
			la, err := m.Topo.Place(a, n, placement)
			if err != nil {
				return err
			}
			lb, err := m.Topo.Place(a+1, n, placement)
			if err != nil {
				return err
			}
			samples, err := runP2PCurve(cfg, cluster.Classify(la, lb), 1, opts, osu.Latency)
			if err != nil {
				return err
			}
			series.Add(float64(a), samples[0].Value*1e6)
		}
	}
	return fig.Fprint(w)
}

// runF15 runs the application-level workloads on every requested
// fabric: EP (compute-only: fabric-insensitive), IS (one alltoallv:
// bisection-bound), CG (allgather+allreduce per iteration:
// latency-bound). Their contrast is the application-level summary of
// the platform characterization. The trailing ratio column compares
// the last platform against the first and is dropped for a
// single-platform request.
func runF15(w io.Writer, r Request) error {
	ms, err := platformsFor(r, cluster.GigECluster, cluster.IBCluster)
	if err != nil {
		return err
	}
	p := 8
	pairsPerRank := 20000
	keysPerRank := 20000
	cgN := 512
	if r.Scale == Full {
		pairsPerRank = 200000
		keysPerRank = 200000
		cgN = 2048
	}

	stencilN := 64
	if r.Scale == Full {
		stencilN = 256
	}
	a, b, err := cgSystem(cgN)
	if err != nil {
		return err
	}

	cols := []string{"kernel", "metric"}
	for _, m := range ms {
		cols = append(cols, m.Name)
	}
	compare := len(ms) > 1
	if compare {
		cols = append(cols, fmt.Sprintf("%s/%s",
			shortName(ms[len(ms)-1].Name), shortName(ms[0].Name)))
	}
	t := report.NewTable(fmt.Sprintf("Application kernels (p=%d, cyclic placement)", p), cols...)

	type row struct{ ep, is, st, cg float64 }
	results := make([]row, len(ms))
	for i, m := range ms {
		m.Placement = cluster.Cyclic
		rr, err := onRank0(p, mp.Config{Model: m}, func(c *mp.Comm) (row, error) {
			ep, err := nas.EP(c, nas.EPConfig{
				PairsPerRank: pairsPerRank, Seed: 1, ComputeRate: m.FlopsPerCore / 50,
			})
			if err != nil {
				return row{}, err
			}
			is, err := nas.IS(c, nas.ISConfig{
				KeysPerRank: keysPerRank, MaxKey: 1 << 20, Seed: 2,
			})
			if err != nil {
				return row{}, err
			}
			_, st, err := stencil.Jacobi(c, stencil.Config{
				NX: stencilN, NY: stencilN, Iters: 50, ComputeRate: 1e9,
			})
			if err != nil {
				return row{}, err
			}
			cgTime, err := runCG(c, a, b)
			if err != nil {
				return row{}, err
			}
			return row{ep: ep.MopsPerS, is: is.MKeysPerS, st: st.CellsPerS, cg: cgTime}, nil
		})
		if err != nil {
			return fmt.Errorf("platform %s: %w", m.Name, err)
		}
		results[i] = rr
	}
	add := func(kernel, metric string, pick func(row) float64, scale float64, lowerBetter bool) {
		cells := []any{kernel, metric}
		for _, rr := range results {
			cells = append(cells, pick(rr)*scale)
		}
		if compare {
			first, last := pick(results[0]), pick(results[len(results)-1])
			if lowerBetter {
				cells = append(cells, ratio(first, last))
			} else {
				cells = append(cells, ratio(last, first))
			}
		}
		t.AddRow(cells...)
	}
	add("EP", "Mpairs/s", func(r row) float64 { return r.ep }, 1, false)
	add("IS", "Mkeys/s", func(r row) float64 { return r.is }, 1, false)
	add("Stencil", "Mcells/s", func(r row) float64 { return r.st }, 1e-6, false)
	add("CG", "time (ms)", func(r row) float64 { return r.cg }, 1e3, true)
	return t.Fprint(w)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

// cgSystem builds the CG workload's n-row system A x = b, shared
// read-only by every rank of every platform: DistCG never writes it.
func cgSystem(n int) (*sparse.CSR, []float64, error) {
	a, err := sparse.RandomSPD(n, 5, 77)
	if err != nil {
		return nil, nil, err
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i) / 3)
	}
	b := make([]float64, n)
	if err := a.MatVec(xTrue, b); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// runCG runs one distributed CG solve of a x = b, each rank on its
// block of rows, and returns the modeled solve time on rank 0.
func runCG(c *mp.Comm, a *sparse.CSR, b []float64) (float64, error) {
	n, p := a.Rows, c.Size()
	counts := make([]int, p)
	for i := range counts {
		counts[i] = n / p
	}
	counts[p-1] += n % p
	lo := c.Rank() * (n / p)
	hi := lo + counts[c.Rank()]
	aLoc, err := a.RowSlice(lo, hi)
	if err != nil {
		return 0, err
	}
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	t0 := c.Time()
	_, res, err := sparse.DistCG(c, aLoc, b[lo:hi], counts, 5*n, 1e-9)
	if err != nil {
		return 0, err
	}
	if !res.Converged {
		return 0, fmt.Errorf("core: CG did not converge: %+v", res)
	}
	return c.Time() - t0, nil
}
