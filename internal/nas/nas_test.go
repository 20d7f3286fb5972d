package nas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mp"
)

func sim() mp.Config { return mp.Config{Model: cluster.Preset("ib-64n")} }

func TestEPStatistics(t *testing.T) {
	// With many pairs, ~pi/4 of them are accepted and the Gaussian
	// sums are near zero relative to the deviate count.
	err := mp.Run(4, sim(), func(c *mp.Comm) error {
		res, err := EP(c, EPConfig{PairsPerRank: 100000, Seed: 1, Verify: true})
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
			r, err := EP(c, EPConfig{PairsPerRank: 10000, Seed: 7, Verify: true})
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
	m := cluster.Preset("ib-8n")
	err := mp.Run(4, mp.Config{Model: m}, func(c *mp.Comm) error {
		res, err := EP(c, EPConfig{PairsPerRank: 10000, Seed: 2, ComputeRate: 1e8, Verify: true})
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
	for _, name := range []string{"gige-8n", "ib-8n"} {
		m := cluster.Preset(name)
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

// TestEPTimingIgnoresValues: EP's charge is PairsPerRank/ComputeRate
// whatever the draws, so the run without Verify, which skips them, must
// time exactly like the verified run, and report zero statistics.
func TestEPTimingIgnoresValues(t *testing.T) {
	for _, p := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			run := func(verify bool) EPResult {
				var res EPResult
				err := mp.Run(p, sim(), func(c *mp.Comm) error {
					r, err := EP(c, EPConfig{PairsPerRank: 5000, Seed: 4, ComputeRate: 1e8, Verify: verify})
					if c.Rank() == 0 {
						res = r
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			verified, sizes := run(true), run(false)
			if verified.Accepted == 0 {
				t.Fatalf("verified run accepted no pairs")
			}
			if verified.Seconds != sizes.Seconds || verified.MopsPerS != sizes.MopsPerS {
				t.Errorf("unverified run timed %v s (%v Mpairs/s), the verified run %v s (%v Mpairs/s)",
					sizes.Seconds, sizes.MopsPerS, verified.Seconds, verified.MopsPerS)
			}
			if sizes.Accepted != 0 || sizes.SumX != 0 || sizes.SumY != 0 || sizes.Counts != [10]int64{} {
				t.Errorf("unverified run reported statistics %+v", sizes)
			}
		})
	}
}

// TestISTimingIgnoresValues: IS's virtual time is a function of the
// per-destination key counts alone, so the run without Verify (no key
// slice, a size-only Alltoallv) must time exactly like the verified run
// that packs, moves and sorts the keys. MaxKey 1000 over p=3 leaves the
// last rank a shorter range, so the counts differ across ranks.
func TestISTimingIgnoresValues(t *testing.T) {
	for _, tc := range []struct{ p, keys, maxKey int }{
		{1, 2000, 1 << 16}, {3, 1000, 1000}, {4, 5000, 1 << 16}, {8, 3000, 1 << 20},
	} {
		t.Run(fmt.Sprintf("p=%d/keys=%d/max=%d", tc.p, tc.keys, tc.maxKey), func(t *testing.T) {
			run := func(verify bool) ISResult {
				var res ISResult
				err := mp.Run(tc.p, sim(), func(c *mp.Comm) error {
					r, err := IS(c, ISConfig{KeysPerRank: tc.keys, MaxKey: tc.maxKey, Seed: 6, Verify: verify})
					if c.Rank() == 0 {
						res = r
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			verified, sizes := run(true), run(false)
			if !verified.SortedOK {
				t.Fatalf("verified run failed its check")
			}
			if verified.Seconds != sizes.Seconds || verified.MKeysPerS != sizes.MKeysPerS {
				t.Errorf("unverified run timed %v s (%v Mkeys/s), the verified run %v s (%v Mkeys/s)",
					sizes.Seconds, sizes.MKeysPerS, verified.Seconds, verified.MKeysPerS)
			}
		})
	}
}
