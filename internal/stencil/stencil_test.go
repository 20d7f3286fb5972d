package stencil

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bytesview"
	"repro/internal/cluster"
	"repro/internal/mp"
)

func sim() mp.Config { return mp.Config{Model: cluster.Preset("ib-64n")} }

func TestSerialBoundaryAndSmoothing(t *testing.T) {
	g := Serial(8, 8, 50)
	// Top edge held at 1, bottom at 0.
	for j := 0; j < 8; j++ {
		if g[j] != 1 {
			t.Fatalf("top boundary moved: %v", g[j])
		}
		if g[7*8+j] != 0 {
			t.Fatalf("bottom boundary moved: %v", g[7*8+j])
		}
	}
	// Interior must have warmed above 0 near the top and stay within
	// the boundary envelope [0, 1].
	if g[1*8+4] <= 0 {
		t.Error("heat did not diffuse from the hot edge")
	}
	for i, v := range g {
		if v < 0 || v > 1 {
			t.Fatalf("cell %d = %v outside [0,1] (maximum principle)", i, v)
		}
	}
	// Monotone decay away from the hot edge along a column.
	if !(g[1*8+4] > g[3*8+4] && g[3*8+4] > g[6*8+4]) {
		t.Errorf("no monotone decay: %v %v %v", g[1*8+4], g[3*8+4], g[6*8+4])
	}
}

func TestJacobiMatchesSerial(t *testing.T) {
	const nx, ny, iters = 16, 12, 40
	want := Serial(nx, ny, iters)
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := mp.Run(p, sim(), func(c *mp.Comm) error {
				block, res, err := Jacobi(c, Config{NX: nx, NY: ny, Iters: iters})
				if err != nil {
					return err
				}
				if res.Iters != iters {
					return fmt.Errorf("ran %d iters, want %d", res.Iters, iters)
				}
				full := make([]float64, nx*ny)
				if err := c.Allgather(bytesview.F64(block), bytesview.F64(full)); err != nil {
					return err
				}
				for i := range full {
					if math.Abs(full[i]-want[i]) > 1e-12 {
						return fmt.Errorf("cell %d: %v vs serial %v", i, full[i], want[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestJacobiConvergence(t *testing.T) {
	err := mp.Run(2, sim(), func(c *mp.Comm) error {
		_, res, err := Jacobi(c, Config{
			NX: 16, NY: 16, Iters: 100000, CheckEvery: 50, Tol: 1e-8,
		})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("did not converge: %+v", res)
		}
		if res.Iters >= 100000 {
			return fmt.Errorf("convergence did not stop early")
		}
		if res.LastDelta >= 1e-8 {
			return fmt.Errorf("last delta %v above tol", res.LastDelta)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJacobiValidation(t *testing.T) {
	err := mp.Run(3, sim(), func(c *mp.Comm) error {
		if _, _, err := Jacobi(c, Config{NX: 16, NY: 16, Iters: 1}); err == nil {
			return fmt.Errorf("NX not divisible by p accepted")
		}
		if _, _, err := Jacobi(c, Config{NX: 3, NY: 1, Iters: 1}); err == nil {
			return fmt.Errorf("tiny grid accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJacobiHaloAccounting(t *testing.T) {
	err := mp.Run(4, sim(), func(c *mp.Comm) error {
		const nx, ny, iters = 16, 10, 7
		_, res, err := Jacobi(c, Config{NX: nx, NY: ny, Iters: iters})
		if err != nil {
			return err
		}
		neighbours := 2
		if c.Rank() == 0 || c.Rank() == 3 {
			neighbours = 1
		}
		want := int64(iters * neighbours * ny * 8)
		if res.HaloBytes != want {
			return fmt.Errorf("rank %d halo bytes %d, want %d", c.Rank(), res.HaloBytes, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJacobiOnSimFabricsOrdering(t *testing.T) {
	// Halo exchange is latency-sensitive at small NY: IB must beat
	// GigE in modeled cell-update rate.
	rate := map[string]float64{}
	for _, name := range []string{"gige-8n", "ib-8n"} {
		m := cluster.Preset(name)
		m.Placement = cluster.Cyclic
		err := mp.Run(8, mp.Config{Model: m}, func(c *mp.Comm) error {
			_, res, err := Jacobi(c, Config{
				NX: 64, NY: 64, Iters: 30, ComputeRate: 1e9,
			})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				rate[m.Name] = res.CellsPerS
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if rate["ib-8n"] <= rate["gige-8n"] {
		t.Errorf("IB stencil rate %v not above GigE %v", rate["ib-8n"], rate["gige-8n"])
	}
}
