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
	return mp.Config{Model: cluster.IBCluster()}
}

func smallOpts() Options {
	return Options{
		Sizes:  []int{0, 8, 1024, 65536},
		Warmup: 2,
		Iters:  10,
		Window: 8,
	}
}

func TestLatencyCurve(t *testing.T) {
	err := mp.Run(2, simCfg(), func(c *mp.Comm) error {
		samples, err := Latency(c, smallOpts())
		if err != nil || c.Rank() != 0 {
			return err
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

// TestPairBenchmarksLeaveBystandersSilent: the pair benchmarks involve
// only their pair, as osu_latency does. Run on a two-rank communicator
// split from a larger world, rank 0 of the pair alone gets the curve,
// and no rank outside the pair sends, receives or enters a collective.
func TestPairBenchmarksLeaveBystandersSilent(t *testing.T) {
	err := mp.Run(8, simCfg(), func(c *mp.Comm) error {
		color := mp.Undefined
		if c.Rank() == 0 || c.Rank() == 7 {
			color = 0
		}
		pair, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		c.ResetStats()
		if pair != nil {
			for _, bench := range []func(*mp.Comm, Options) ([]Sample, error){Latency, Bandwidth, BiBandwidth} {
				samples, err := bench(pair, smallOpts())
				if err != nil {
					return err
				}
				if got := len(samples); (c.Rank() == 0) != (got > 0) {
					return fmt.Errorf("rank %d got %d samples", c.Rank(), got)
				}
			}
		}
		if st := c.Stats(); pair == nil && st != (mp.OpStats{}) {
			return fmt.Errorf("bystander rank %d was not silent: %+v", c.Rank(), st)
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
		m := cluster.IBCluster()
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

func TestBandwidthCurve(t *testing.T) {
	err := mp.Run(2, simCfg(), func(c *mp.Comm) error {
		samples, err := Bandwidth(c, smallOpts())
		if err != nil || c.Rank() != 0 {
			return err
		}
		if len(samples) != 3 { // size 0 dropped
			return fmt.Errorf("got %d samples", len(samples))
		}
		// Bandwidth grows with message size toward the link asymptote.
		if samples[2].Value <= samples[0].Value {
			return fmt.Errorf("bw not increasing: %v", samples)
		}
		// It must not exceed the modeled link bandwidth by more than
		// rounding (intra-socket path here).
		link := cluster.IBCluster().Links.IntraSocket.Bandwidth()
		if samples[2].Value > 1.05*link {
			return fmt.Errorf("bw %v exceeds modeled link %v", samples[2].Value, link)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
		if err != nil || c.Rank() != 0 {
			return err
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

func TestMultiPairAggregates(t *testing.T) {
	m := cluster.IBCluster()
	cfg := mp.Config{Model: m}
	opts := Options{Sizes: []int{4096}, Warmup: 1, Iters: 5, Window: 4}
	rates := map[int]float64{}
	n := 8
	err := mp.Run(n, cfg, func(c *mp.Comm) error {
		for _, pairs := range []int{1, 2, 4} {
			s, err := MultiPairBandwidth(c, pairs, opts)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				rates[pairs] = s[0].Value
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(rates[2] > rates[1]) {
		t.Errorf("2 pairs (%v) not above 1 pair (%v)", rates[2], rates[1])
	}
	if !(rates[4] > rates[2]*0.9) {
		t.Errorf("4 pairs (%v) collapsed below 2 pairs (%v)", rates[4], rates[2])
	}
}

func TestMultiPairValidation(t *testing.T) {
	err := mp.Run(2, simCfg(), func(c *mp.Comm) error {
		if _, err := MultiPairBandwidth(c, 2, smallOpts()); err == nil {
			return fmt.Errorf("2 pairs on 2 ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

// TestPairValidation: the pair benchmarks run on exactly two ranks, as
// osu_latency does, and refuse any other world size.
func TestPairValidation(t *testing.T) {
	benches := map[string]func(*mp.Comm, Options) ([]Sample, error){
		"Latency": Latency, "Bandwidth": Bandwidth, "BiBandwidth": BiBandwidth,
	}
	for _, n := range []int{1, 3} {
		for name, bench := range benches {
			err := mp.Run(n, simCfg(), func(c *mp.Comm) error {
				if _, err := bench(c, smallOpts()); err == nil {
					return fmt.Errorf("%s accepted %d ranks", name, n)
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
