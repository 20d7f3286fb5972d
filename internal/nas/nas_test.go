package nas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mp"
)

func sim() mp.Config { return mp.Config{Model: cluster.BigIBCluster()} }

func TestEPStatistics(t *testing.T) {
	// With many pairs, ~pi/4 of them are accepted and the Gaussian
	// sums are near zero relative to the deviate count.
	err := mp.Run(4, sim(), func(c *mp.Comm) error {
		res, err := EP(c, EPConfig{PairsPerRank: 100000, Seed: 1})
		if err != nil {
			return err
		}
		frac := float64(res.Accepted) / float64(res.Pairs)
		if math.Abs(frac-math.Pi/4) > 0.01 {
			return fmt.Errorf("acceptance fraction %v, want ~%v", frac, math.Pi/4)
		}
		// Mean of the deviates ~ N(0, 1/sqrt(n)); allow 5 sigma.
		n := float64(res.Accepted)
		if math.Abs(res.SumX)/math.Sqrt(n) > 5 || math.Abs(res.SumY)/math.Sqrt(n) > 5 {
			return fmt.Errorf("deviate sums too large: %v %v (n=%v)", res.SumX, res.SumY, n)
		}
		// Ring counts decay: ring 0 (|dev| < 1) must dominate ring 2.
		if res.Counts[0] <= res.Counts[2] {
			return fmt.Errorf("ring counts not decaying: %v", res.Counts)
		}
		var sum int64
		for _, ct := range res.Counts {
			sum += ct
		}
		if sum != res.Accepted {
			return fmt.Errorf("ring counts sum %d != accepted %d", sum, res.Accepted)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEPDeterministicAcrossRankCounts(t *testing.T) {
	// Total statistics must not depend on how work is split because
	// each rank uses a jumped (disjoint) stream — with the SAME total
	// pair budget per rank layout. Here: same per-rank count, p=1 vs
	// p=2 differ in totals, so instead check determinism at fixed p.
	var first EPResult
	for trial := 0; trial < 2; trial++ {
		var res EPResult
		err := mp.Run(3, sim(), func(c *mp.Comm) error {
			r, err := EP(c, EPConfig{PairsPerRank: 10000, Seed: 7})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				res = r
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res
		} else if first.Accepted != res.Accepted || first.SumX != res.SumX {
			t.Errorf("EP not deterministic: %+v vs %+v", first, res)
		}
	}
}

func TestEPValidation(t *testing.T) {
	err := mp.Run(1, sim(), func(c *mp.Comm) error {
		if _, err := EP(c, EPConfig{PairsPerRank: 0}); err == nil {
			return fmt.Errorf("zero pairs accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEPOnSimChargesTime(t *testing.T) {
	m := cluster.IBCluster()
	err := mp.Run(4, mp.Config{Model: m}, func(c *mp.Comm) error {
		res, err := EP(c, EPConfig{PairsPerRank: 10000, Seed: 2, ComputeRate: 1e8})
		if err != nil {
			return err
		}
		if res.Seconds <= 0 {
			return fmt.Errorf("no virtual time charged: %v", res.Seconds)
		}
		if res.MopsPerS <= 0 {
			return fmt.Errorf("rate %v", res.MopsPerS)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestISSortsAndConserves(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := mp.Run(p, sim(), func(c *mp.Comm) error {
				res, err := IS(c, ISConfig{
					KeysPerRank: 5000, MaxKey: 1 << 16, Seed: 3, Verify: true,
				})
				if err != nil {
					return err
				}
				if !res.SortedOK {
					return fmt.Errorf("verification failed")
				}
				if res.TotalKeys != int64(5000*p) {
					return fmt.Errorf("total keys %d", res.TotalKeys)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestISSkewedMaxKey(t *testing.T) {
	// MaxKey not divisible by p: the last rank absorbs the remainder
	// range; conservation and order must still hold.
	err := mp.Run(3, sim(), func(c *mp.Comm) error {
		res, err := IS(c, ISConfig{KeysPerRank: 1000, MaxKey: 1000, Seed: 9, Verify: true})
		if err != nil {
			return err
		}
		if !res.SortedOK {
			return fmt.Errorf("verification failed with skewed ranges")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestISValidation(t *testing.T) {
	err := mp.Run(4, sim(), func(c *mp.Comm) error {
		if _, err := IS(c, ISConfig{KeysPerRank: 0, MaxKey: 10}); err == nil {
			return fmt.Errorf("zero keys accepted")
		}
		if _, err := IS(c, ISConfig{KeysPerRank: 10, MaxKey: 2}); err == nil {
			return fmt.Errorf("MaxKey < p accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestISOnSimFasterOnIB(t *testing.T) {
	// The alltoallv redistribution is bisection-bound: IB must beat
	// GigE at equal configuration.
	rate := map[string]float64{}
	for _, mk := range []func() *cluster.Model{cluster.GigECluster, cluster.IBCluster} {
		m := mk()
		m.Placement = cluster.Cyclic
		err := mp.Run(8, mp.Config{Model: m}, func(c *mp.Comm) error {
			res, err := IS(c, ISConfig{KeysPerRank: 20000, MaxKey: 1 << 20, Seed: 5})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				rate[m.Name] = res.MKeysPerS
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if rate["ib-8n"] <= rate["gige-8n"] {
		t.Errorf("IS rate on IB (%v) not above GigE (%v)", rate["ib-8n"], rate["gige-8n"])
	}
}
