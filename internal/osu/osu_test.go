package osu

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mp"
)

// simCfg runs benchmarks on the virtual-time fabric so results are
// deterministic and fast.
func simCfg() mp.Config {
	return mp.Config{Model: cluster.Preset("ib-8n")}
}

func smallOpts() Options {
	return Options{
		Sizes:  []int{0, 8, 1024, 65536},
		Warmup: 2,
		Iters:  10,
		Window: 8,
	}
}

// noSamples checks the pair benchmarks' contract that rank 0 alone
// returns the curve: it fails if any of rank c's curves has samples.
func noSamples(c *mp.Comm, curves ...[]Sample) error {
	for _, s := range curves {
		if len(s) != 0 {
			return fmt.Errorf("rank %d got %d samples", c.Rank(), len(s))
		}
	}
	return nil
}

func TestLatencyCurve(t *testing.T) {
	err := mp.Run(2, simCfg(), func(c *mp.Comm) error {
		samples, err := Latency(c, smallOpts())
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return noSamples(c, samples)
		}
		if len(samples) != 4 {
			return fmt.Errorf("got %d samples", len(samples))
		}
		// Latency must be positive and non-decreasing in size beyond
		// the first points (LogGP model is affine in size).
		for i, s := range samples {
			if s.Value <= 0 {
				return fmt.Errorf("sample %d: latency %v", i, s.Value)
			}
		}
		if samples[3].Value <= samples[1].Value {
			return fmt.Errorf("64KiB latency %v not above 8B latency %v",
				samples[3].Value, samples[1].Value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLatencyIntraVsInterNode(t *testing.T) {
	// The headline shape of experiment F1: inter-node latency must
	// exceed intra-node latency on the modeled cluster. Block placement
	// puts ranks 0 and 1 on one socket, cyclic on two nodes.
	latency := func(p cluster.Placement) float64 {
		m := cluster.Preset("ib-8n")
		m.Placement = p
		var lat float64
		err := mp.Run(2, mp.Config{Model: m}, func(c *mp.Comm) error {
			s, err := Latency(c, smallOpts())
			if err == nil && c.Rank() == 0 {
				lat = s[1].Value
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	intra, inter := latency(cluster.Block), latency(cluster.Cyclic)
	if inter < 3*intra {
		t.Errorf("inter-node latency %v not >> intra-node %v", inter, intra)
	}
}

// TestBandwidthCurve: on two ranks and on four, rank 0 gets a curve
// that grows with message size and stays within one link per pair, and
// every other rank gets nil.
func TestBandwidthCurve(t *testing.T) {
	for _, n := range []int{2, 4} {
		err := mp.Run(n, simCfg(), func(c *mp.Comm) error {
			samples, err := Bandwidth(c, smallOpts())
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				return noSamples(c, samples)
			}
			if len(samples) != 3 { // size 0 dropped
				return fmt.Errorf("got %d samples", len(samples))
			}
			// Bandwidth grows with message size toward the link asymptote.
			if samples[2].Value <= samples[0].Value {
				return fmt.Errorf("bw not increasing: %v", samples)
			}
			// It must not exceed the modeled link bandwidth per pair by
			// more than rounding (intra-socket paths here).
			link := float64(n/2) * cluster.Preset("ib-8n").Links.IntraSocket.Bandwidth()
			if samples[2].Value > 1.05*link {
				return fmt.Errorf("bw %v exceeds modeled links %v", samples[2].Value, link)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d ranks: %v", n, err)
		}
	}
}

func TestBiBandwidthAtLeastUnidirectional(t *testing.T) {
	err := mp.Run(2, simCfg(), func(c *mp.Comm) error {
		opts := smallOpts()
		uni, err := Bandwidth(c, opts)
		if err != nil {
			return err
		}
		bi, err := BiBandwidth(c, opts)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return noSamples(c, uni, bi)
		}
		// At the largest size, bidirectional traffic counts both
		// directions and should be >= the unidirectional rate.
		last := len(uni) - 1
		if bi[last].Value < uni[last].Value*0.9 {
			return fmt.Errorf("bibw %v below uni %v", bi[last].Value, uni[last].Value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBandwidthAggregateWithinNIC: k pairs whose senders share one
// node's NIC move no more than that NIC's 1/G between them, on both
// sides of the eager threshold; they fill it at 1 MiB; and adding pairs
// never lowers the aggregate at any size. Each sender owns 1/k of the
// NIC, so the curve is the same under every schedule.
func TestBandwidthAggregateWithinNIC(t *testing.T) {
	opts := Options{Sizes: []int{1024, 4096, 65536, 1 << 20}, Warmup: 2, Iters: 10, Window: 16}
	for _, name := range []string{"ib-8n", "gige-8n"} {
		var prev []Sample
		for _, pairs := range []int{1, 2, 4} {
			// The shape core's pairModel gives F4: senders on node 0,
			// receivers on node 1.
			m := cluster.Preset(name)
			m.Placement = cluster.Block
			m.Topo = cluster.Topology{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: pairs}
			nicBW := 1 / m.Links.InterNode.GB
			var s []Sample
			err := mp.Run(2*pairs, mp.Config{Model: m}, func(c *mp.Comm) error {
				got, err := Bandwidth(c, opts)
				if c.Rank() == 0 {
					s = got
				}
				return err
			})
			if err != nil {
				t.Fatalf("%s, %d pairs: %v", m.Name, pairs, err)
			}
			for i, smp := range s {
				if smp.Value > (1+1e-9)*nicBW {
					t.Errorf("%s, %d pairs, %d B: aggregate %.6g B/s above the NIC's %.6g", m.Name, pairs, smp.Size, smp.Value, nicBW)
				}
				if smp.Size == 1<<20 && smp.Value < 0.999*nicBW {
					t.Errorf("%s, %d pairs, %d B: aggregate %.6g B/s below 0.999 of the NIC's %.6g", m.Name, pairs, smp.Size, smp.Value, nicBW)
				}
				if prev != nil && smp.Value < prev[i].Value {
					t.Errorf("%s, %d B: aggregate fell from %.6g to %.6g B/s at %d pairs", m.Name, smp.Size, prev[i].Value, smp.Value, pairs)
				}
			}
			prev = s
		}
	}
}

func TestCollectiveLatency(t *testing.T) {
	err := mp.Run(4, simCfg(), func(c *mp.Comm) error {
		buf := make([]byte, 64)
		lat, err := CollectiveLatency(c, 2, 10, func() error {
			return c.Bcast(0, buf)
		})
		if err != nil {
			return err
		}
		if lat <= 0 {
			return fmt.Errorf("bcast latency %v", lat)
		}
		barLat, err := CollectiveLatency(c, 2, 10, func() error {
			return c.Barrier()
		})
		if err != nil {
			return err
		}
		if barLat <= 0 {
			return fmt.Errorf("barrier latency %v", barLat)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveLatencyValidation(t *testing.T) {
	err := mp.Run(2, simCfg(), func(c *mp.Comm) error {
		if _, err := CollectiveLatency(c, 0, 0, func() error { return nil }); err == nil {
			return fmt.Errorf("iters=0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPairValidation: Latency and BiBandwidth run on exactly two ranks,
// as osu_latency does, and Bandwidth on any even world; each refuses
// every other world size.
func TestPairValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bench func(*mp.Comm, Options) ([]Sample, error)
		sizes []int
	}{
		{"Latency", Latency, []int{1, 3, 4}},
		{"BiBandwidth", BiBandwidth, []int{1, 3, 4}},
		{"Bandwidth", Bandwidth, []int{1, 3}},
	} {
		for _, n := range tc.sizes {
			err := mp.Run(n, simCfg(), func(c *mp.Comm) error {
				if _, err := tc.bench(c, smallOpts()); err == nil {
					return fmt.Errorf("%s accepted %d ranks", tc.name, n)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
}

func TestDefaultSizes(t *testing.T) {
	sizes := DefaultSizes()
	if sizes[0] != 0 || sizes[1] != 1 {
		t.Error("sizes must start 0, 1")
	}
	if sizes[len(sizes)-1] != 4<<20 {
		t.Errorf("largest size = %d, want 4 MiB", sizes[len(sizes)-1])
	}
	for i := 2; i < len(sizes); i++ {
		if sizes[i] != 2*sizes[i-1] {
			t.Error("sizes must double")
		}
	}
}

func TestLoopScaling(t *testing.T) {
	o := Options{Warmup: 10, Iters: 100}.normalize()
	w, it := o.loops(100)
	if w != 10 || it != 100 {
		t.Errorf("small loops = %d/%d", w, it)
	}
	w, it = o.loops(1 << 20)
	if w != 1 || it != 10 {
		t.Errorf("large loops = %d/%d", w, it)
	}
}
