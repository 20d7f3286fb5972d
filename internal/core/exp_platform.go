package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/hpcc"
	"repro/internal/mp"
	"repro/internal/osu"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:    "T1",
		Title: "Modeled platform parameters (the testbed table)",
		Kind:  "table",
		Run:   runT1,
	})
	register(Experiment{
		ID:    "T4",
		Title: "Cross-platform comparison: GigE-class vs IB-class fabric",
		Kind:  "table",
		Run:   runT4,
		Needs: cluster.CapMultiNode,
	})
}

// shortName abbreviates a preset name to its family prefix for winner
// labels: "gige-8n" -> "gige", "ib-8n" -> "ib".
func shortName(name string) string {
	if i := strings.IndexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return name
}

// runT1 prints the platform inventory: what a measurement paper's
// "experimental setup" table reports, except here the numbers are the
// simulator's configured truth. The default request covers the
// canonical testbed trio; an explicit platform prints that preset's
// rows alone.
func runT1(w io.Writer, r Request) error {
	ms, err := platformsFor(r, cluster.SMPNode, cluster.GigECluster, cluster.IBCluster)
	if err != nil {
		return err
	}
	t := report.NewTable("Platform parameters",
		"platform", "topology", "path", "latency(us)", "bandwidth(MB/s)")
	for _, m := range ms {
		classes := []cluster.PathClass{cluster.IntraSocket, cluster.IntraNode, cluster.InterNode}
		for _, pc := range pathClassesOf(m, classes) {
			if m.Topo.Nodes == 1 && pc == cluster.InterNode {
				continue
			}
			lp := m.Links.For(pc)
			t.AddRow(m.Name, m.Topo.String(), pc.String(),
				lp.TransferTime(8)*1e6, lp.Bandwidth()/1e6)
		}
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	// The canonical node-parameter rows cover the two fabrics only
	// (smp-1n shares their node); an explicit platform shows itself.
	nodeMs := ms
	if r.Platform == "" {
		nodeMs = ms[1:]
	}
	t2 := report.NewTable("Node parameters",
		"platform", "mem BW/socket (GB/s)", "mem BW/core (GB/s)", "peak GFLOP/s/core")
	for _, m := range nodeMs {
		t2.AddRow(m.Name, m.MemBWPerSocket/1e9, m.MemBWPerCore/1e9, m.FlopsPerCore/1e9)
	}
	return t2.Fprint(w)
}

// runT4 runs the same battery on every requested fabric and tabulates
// the head-to-head, the paper's summary comparison. With a single
// explicit platform the winner column (meaningless for one entrant)
// is dropped.
func runT4(w io.Writer, r Request) error {
	type row struct {
		smallLat  float64 // 8B inter-node latency (us)
		peakBW    float64 // 1 MiB p2p bandwidth (MB/s)
		allreduce float64 // 8B allreduce latency @ p (us)
		gups      float64
		ringNat   float64 // natural ring bw (MB/s)
		ringRnd   float64 // random ring bw (MB/s)
	}
	ms, err := platformsFor(r, cluster.GigECluster, cluster.IBCluster)
	if err != nil {
		return err
	}
	p := 8
	tableBits := 14
	iters := 50
	if r.Scale == Quick {
		tableBits = 10
		iters = 10
	}
	// Cyclic placement puts neighbours off-node (one rank per node on
	// at least p nodes), so the fabric, not shared memory, is what gets
	// compared. The pair
	// metrics run on an inter-node pair of their own, which a cyclic
	// world of p ranks on fewer than p nodes would not give them.
	measure := func(m *cluster.Model) (row, error) {
		m.Placement = cluster.Cyclic
		cfg := mp.Config{Model: m}
		opts := osu.Options{Sizes: []int{8, 1 << 20}, Warmup: 5, Iters: iters, Window: 32}
		lat, err := runP2PCurve(cfg, cluster.InterNode, 1, opts, osu.Latency)
		if err != nil {
			return row{}, err
		}
		bw, err := runP2PCurve(cfg, cluster.InterNode, 1, opts, osu.Bandwidth)
		if err != nil {
			return row{}, err
		}
		rr, err := onRank0(p, cfg, func(c *mp.Comm) (row, error) {
			buf := make([]float64, 1)
			out := make([]float64, 1)
			ar, err := osu.CollectiveLatency(c, 5, iters, func() error {
				return c.Allreduce(mp.OpSum, buf, out)
			})
			if err != nil {
				return row{}, err
			}
			g, err := hpcc.RandomAccess(c, hpcc.GUPSConfig{TableBits: tableBits, Chunk: 1024, ComputeRate: 1e8})
			if err != nil {
				return row{}, err
			}
			nat, err := hpcc.NaturalRing(c, 4096, 5, iters)
			if err != nil {
				return row{}, err
			}
			rnd, err := hpcc.RandomRing(c, 4096, 5, iters, 99)
			if err != nil {
				return row{}, err
			}
			return row{allreduce: ar * 1e6, gups: g.GUPS,
				ringNat: nat.Bandwidth / 1e6, ringRnd: rnd.Bandwidth / 1e6}, nil
		})
		rr.smallLat, rr.peakBW = lat[0].Value*1e6, bw[1].Value/1e6
		return rr, err
	}
	results := make([]row, len(ms))
	for i, m := range ms {
		done := phase(w, "platform/"+m.Name)
		rr, err := measure(m)
		done()
		if err != nil {
			return fmt.Errorf("platform %s: %w", m.Name, err)
		}
		results[i] = rr
	}
	cols := []string{"metric"}
	for _, m := range ms {
		cols = append(cols, m.Name)
	}
	compare := len(ms) > 1
	if compare {
		cols = append(cols, "winner")
	}
	t := report.NewTable(fmt.Sprintf("Platform comparison (p=%d, cyclic placement)", p), cols...)
	add := func(name string, vals []float64, lowerBetter bool) {
		cells := []any{name}
		for _, v := range vals {
			cells = append(cells, v)
		}
		if compare {
			// Later platforms take ties, reproducing the historical
			// gige-vs-ib rule ("ib unless gige is strictly better").
			best, win := vals[0], shortName(ms[0].Name)
			for i := 1; i < len(vals); i++ {
				if (lowerBetter && vals[i] <= best) || (!lowerBetter && vals[i] >= best) {
					best, win = vals[i], shortName(ms[i].Name)
				}
			}
			cells = append(cells, win)
		}
		t.AddRow(cells...)
	}
	pick := func(f func(row) float64) []float64 {
		out := make([]float64, len(results))
		for i, rr := range results {
			out[i] = f(rr)
		}
		return out
	}
	add("8B latency (us)", pick(func(r row) float64 { return r.smallLat }), true)
	add("1MiB p2p BW (MB/s)", pick(func(r row) float64 { return r.peakBW }), false)
	add("8B allreduce (us)", pick(func(r row) float64 { return r.allreduce }), true)
	add("RandomAccess (GUPS)", pick(func(r row) float64 { return r.gups }), false)
	add("natural ring BW (MB/s)", pick(func(r row) float64 { return r.ringNat }), false)
	add("random ring BW (MB/s)", pick(func(r row) float64 { return r.ringRnd }), false)
	return t.Fprint(w)
}
