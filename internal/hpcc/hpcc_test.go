package hpcc

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mp"
)

func sim() mp.Config { return mp.Config{Model: cluster.BigIBCluster()} }

func TestColumnDistributionHelpers(t *testing.T) {
	const nb, p = 4, 3
	// Global cols 0-3 -> rank 0, 4-7 -> rank 1, 8-11 -> rank 2,
	// 12-15 -> rank 0 again.
	if colOwner(0, nb, p) != 0 || colOwner(5, nb, p) != 1 || colOwner(13, nb, p) != 0 {
		t.Error("colOwner wrong")
	}
	if localCol(13, nb, p) != 5 { // second block on rank 0, offset 1
		t.Errorf("localCol(13) = %d, want 5", localCol(13, nb, p))
	}
	if globalCol(5, nb, p, 0) != 13 {
		t.Errorf("globalCol(5) = %d, want 13", globalCol(5, nb, p, 0))
	}
	// Round-trip property over a full matrix.
	n := 37
	counts := make([]int, p)
	for j := 0; j < n; j++ {
		r := colOwner(j, nb, p)
		lj := localCol(j, nb, p)
		if globalCol(lj, nb, p, r) != j {
			t.Fatalf("round trip failed for col %d", j)
		}
		counts[r]++
	}
	for r := 0; r < p; r++ {
		if counts[r] != localCols(n, nb, p, r) {
			t.Errorf("rank %d: counted %d cols, localCols says %d", r, counts[r], localCols(n, nb, p, r))
		}
	}
}

func TestHPLResidualSmall(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, n := range []int{16, 33, 64} {
			t.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(t *testing.T) {
				cfg := sim()
				err := mp.Run(p, cfg, func(c *mp.Comm) error {
					res, err := HPL(c, HPLConfig{N: n, NB: 8, Seed: 42, ComputeRate: cfg.Model.FlopsPerCore})
					if err != nil {
						return err
					}
					if res.Residual < 0 || res.Residual > 16 {
						return fmt.Errorf("residual %v out of [0,16]", res.Residual)
					}
					if res.GFlops <= 0 || res.Seconds <= 0 {
						return fmt.Errorf("bad metrics %+v", res)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestHPLOddBlockAndSize(t *testing.T) {
	// n not divisible by nb, p=3 (odd), exercises remainder blocks.
	err := mp.Run(3, sim(), func(c *mp.Comm) error {
		res, err := HPL(c, HPLConfig{N: 50, NB: 7, Seed: 9})
		if err != nil {
			return err
		}
		if res.Residual > 16 {
			return fmt.Errorf("residual %v", res.Residual)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHPLOnSimFabric(t *testing.T) {
	err := mp.Run(4, sim(), func(c *mp.Comm) error {
		res, err := HPL(c, HPLConfig{N: 32, NB: 8, Seed: 1, ComputeRate: 1e9})
		if err != nil {
			return err
		}
		if res.Residual > 16 {
			return fmt.Errorf("residual %v", res.Residual)
		}
		if res.Seconds <= 0 {
			return fmt.Errorf("virtual time %v", res.Seconds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHPLSkipCheck(t *testing.T) {
	err := mp.Run(2, sim(), func(c *mp.Comm) error {
		res, err := HPL(c, HPLConfig{N: 16, NB: 4, Seed: 3, SkipCheck: true})
		if err != nil {
			return err
		}
		if res.Residual != -1 {
			return fmt.Errorf("expected skipped residual, got %v", res.Residual)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHPLTimingIgnoresValues: no message size, peer or charge of the
// 1-D layout depends on a matrix value, so the size-only run SkipCheck
// selects must time exactly like the factorization the check reads.
// The cases cover a remainder block (N % NB != 0) and block counts
// that p does not divide.
func TestHPLTimingIgnoresValues(t *testing.T) {
	for _, tc := range []struct{ n, nb, p int }{
		{64, 8, 4}, {50, 7, 3}, {33, 8, 2}, {45, 6, 4}, {24, 5, 1},
	} {
		t.Run(fmt.Sprintf("N=%d/NB=%d/p=%d", tc.n, tc.nb, tc.p), func(t *testing.T) {
			run := func(skip bool) HPLResult {
				var res HPLResult
				cfg := sim()
				err := mp.Run(tc.p, cfg, func(c *mp.Comm) error {
					r, err := HPL(c, HPLConfig{N: tc.n, NB: tc.nb, Seed: 5,
						ComputeRate: cfg.Model.FlopsPerCore, SkipCheck: skip})
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
			checked, sizes := run(false), run(true)
			if checked.Residual < 0 || checked.Residual > 16 {
				t.Fatalf("checked run residual %v out of [0,16]", checked.Residual)
			}
			if checked.Seconds != sizes.Seconds || checked.GFlops != sizes.GFlops {
				t.Errorf("SkipCheck timed %v s (%v GF/s), the checked run %v s (%v GF/s)",
					sizes.Seconds, sizes.GFlops, checked.Seconds, checked.GFlops)
			}
		})
	}
}

func TestHPLRejectsBadOrder(t *testing.T) {
	err := mp.Run(1, sim(), func(c *mp.Comm) error {
		if _, err := HPL(c, HPLConfig{N: 0}); err == nil {
			return fmt.Errorf("N=0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGUPSVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := mp.Run(p, sim(), func(c *mp.Comm) error {
				res, err := RandomAccess(c, GUPSConfig{TableBits: 12, Verify: true, Chunk: 256})
				if err != nil {
					return err
				}
				if res.Errors != 0 {
					return fmt.Errorf("%d verification errors", res.Errors)
				}
				if res.GUPS <= 0 {
					return fmt.Errorf("GUPS %v", res.GUPS)
				}
				if res.Updates != 4<<12 {
					return fmt.Errorf("updates %d", res.Updates)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGUPSValidation(t *testing.T) {
	err := mp.Run(3, sim(), func(c *mp.Comm) error {
		if _, err := RandomAccess(c, GUPSConfig{TableBits: 10}); err == nil {
			return fmt.Errorf("non-power-of-two ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mp.Run(1, sim(), func(c *mp.Comm) error {
		if _, err := RandomAccess(c, GUPSConfig{TableBits: 0}); err == nil {
			return fmt.Errorf("TableBits=0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGUPSOnSim(t *testing.T) {
	err := mp.Run(4, sim(), func(c *mp.Comm) error {
		res, err := RandomAccess(c, GUPSConfig{TableBits: 10, Verify: true, Chunk: 128, ComputeRate: 1e8})
		if err != nil {
			return err
		}
		if res.Errors != 0 {
			return fmt.Errorf("%d errors", res.Errors)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPTRANSVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			cfg := sim()
			err := mp.Run(p, cfg, func(c *mp.Comm) error {
				res, err := PTRANS(c, PTRANSConfig{N: 32, Seed: 5, Verify: true, MemRate: cfg.Model.MemBWPerCore})
				if err != nil {
					return err
				}
				if res.MaxErr != 0 {
					return fmt.Errorf("max error %v", res.MaxErr)
				}
				if res.GBps <= 0 {
					return fmt.Errorf("GBps %v", res.GBps)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPTRANSValidation(t *testing.T) {
	err := mp.Run(3, sim(), func(c *mp.Comm) error {
		if _, err := PTRANS(c, PTRANSConfig{N: 32}); err == nil {
			return fmt.Errorf("non-divisible order accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistFFTVerifies(t *testing.T) {
	cases := []struct{ p, n1, n2 int }{
		{1, 8, 8}, {2, 8, 16}, {4, 16, 16}, {4, 4, 32},
	}
	for _, cs := range cases {
		t.Run(fmt.Sprintf("p=%d/%dx%d", cs.p, cs.n1, cs.n2), func(t *testing.T) {
			err := mp.Run(cs.p, sim(), func(c *mp.Comm) error {
				res, err := DistFFT(c, FFTConfig{N1: cs.n1, N2: cs.n2, Seed: 11, Verify: true})
				if err != nil {
					return err
				}
				if res.MaxErr > 1e-9*float64(res.N) {
					return fmt.Errorf("max error %v", res.MaxErr)
				}
				if res.GFlops <= 0 {
					return fmt.Errorf("GFlops %v", res.GFlops)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistFFTValidation(t *testing.T) {
	err := mp.Run(2, sim(), func(c *mp.Comm) error {
		if _, err := DistFFT(c, FFTConfig{N1: 6, N2: 8}); err == nil {
			return fmt.Errorf("non-pow2 accepted")
		}
		if _, err := DistFFT(c, FFTConfig{N1: 1, N2: 8}); err == nil {
			return fmt.Errorf("indivisible dims accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNaturalRing(t *testing.T) {
	err := mp.Run(4, sim(), func(c *mp.Comm) error {
		res, err := NaturalRing(c, 1024, 2, 10)
		if err != nil {
			return err
		}
		if res.AvgTime <= 0 || res.Bandwidth <= 0 {
			return fmt.Errorf("bad ring result %+v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomRingSlowerOnCluster(t *testing.T) {
	// On a multi-node model with block placement, the random ring has
	// more inter-node hops than the natural ring, so it must be slower.
	m := cluster.IBCluster()
	n := m.Topo.TotalCores()
	var nat, rnd RingResult
	err := mp.Run(n, mp.Config{Model: m}, func(c *mp.Comm) error {
		var err error
		nr, err := NaturalRing(c, 4096, 2, 20)
		if err != nil {
			return err
		}
		rr, err := RandomRing(c, 4096, 2, 20, 12345)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			nat, rnd = nr, rr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Bandwidth >= nat.Bandwidth {
		t.Errorf("random ring bw %v not below natural ring %v", rnd.Bandwidth, nat.Bandwidth)
	}
}

func TestRingValidation(t *testing.T) {
	err := mp.Run(1, sim(), func(c *mp.Comm) error {
		if _, err := NaturalRing(c, 8, 1, 5); err == nil {
			return fmt.Errorf("1-rank ring accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mp.Run(2, sim(), func(c *mp.Comm) error {
		if _, err := NaturalRing(c, 8, 1, 0); err == nil {
			return fmt.Errorf("iters=0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDGEMM(t *testing.T) {
	res, err := DGEMM(DGEMMConfig{N: 64, Threads: 2, Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFlops <= 0 || res.Seconds <= 0 {
		t.Errorf("bad DGEMM result %+v", res)
	}
	if _, err := DGEMM(DGEMMConfig{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
}

// TestDistFFTTimingIgnoresValues: the transposes' sizes and the charged
// flops depend on N1, N2 and p alone, so the run without Verify, which
// transforms nothing and moves sizes only, must time exactly like the
// verified transform, square and not.
func TestDistFFTTimingIgnoresValues(t *testing.T) {
	for _, tc := range []struct{ n1, n2, p int }{
		{16, 16, 4}, {8, 32, 2}, {32, 8, 4}, {16, 8, 1},
	} {
		t.Run(fmt.Sprintf("%dx%d/p=%d", tc.n1, tc.n2, tc.p), func(t *testing.T) {
			run := func(verify bool) FFTResult {
				var res FFTResult
				cfg := sim()
				err := mp.Run(tc.p, cfg, func(c *mp.Comm) error {
					r, err := DistFFT(c, FFTConfig{N1: tc.n1, N2: tc.n2, Seed: 2,
						ComputeRate: cfg.Model.FlopsPerCore / 4, Verify: verify})
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
			if verified.MaxErr < 0 || verified.MaxErr > 1e-9 {
				t.Fatalf("verified run error %v", verified.MaxErr)
			}
			if verified.Seconds != sizes.Seconds || verified.GFlops != sizes.GFlops {
				t.Errorf("unverified run timed %v s (%v GF/s), the verified run %v s (%v GF/s)",
					sizes.Seconds, sizes.GFlops, verified.Seconds, verified.GFlops)
			}
		})
	}
}

// TestPTRANSTimingIgnoresValues: the exchanged block sizes and the
// charged pack/unpack traffic depend on N and p alone, so the run
// without Verify, which has no matrix and a size-only Alltoall, must
// time exactly like the verified transpose.
func TestPTRANSTimingIgnoresValues(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{32, 4}, {30, 3}, {16, 1}, {64, 8}} {
		t.Run(fmt.Sprintf("N=%d/p=%d", tc.n, tc.p), func(t *testing.T) {
			run := func(verify bool) PTRANSResult {
				var res PTRANSResult
				cfg := sim()
				err := mp.Run(tc.p, cfg, func(c *mp.Comm) error {
					r, err := PTRANS(c, PTRANSConfig{N: tc.n, Seed: 5, MemRate: cfg.Model.MemBWPerCore, Verify: verify})
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
			if verified.MaxErr < 0 || verified.MaxErr > 1e-12 {
				t.Fatalf("verified run error %v", verified.MaxErr)
			}
			if verified.Seconds != sizes.Seconds || verified.GBps != sizes.GBps {
				t.Errorf("unverified run timed %v s (%v GB/s), the verified run %v s (%v GB/s)",
					sizes.Seconds, sizes.GBps, verified.Seconds, verified.GBps)
			}
		})
	}
}
