package mp

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
)

// sizesUnderTest are rank counts exercising power-of-two and odd cases.
var sizesUnderTest = []int{1, 2, 3, 4, 5, 7, 8, 16}

func forEachSize(t *testing.T, f func(t *testing.T, p int, cfg Config)) {
	t.Helper()
	for _, p := range sizesUnderTest {
		cfg := Config{Model: cluster.BigIBCluster()}
		t.Run(fmt.Sprintf("p=%d/sim", p), func(t *testing.T) {
			f(t, p, cfg)
		})
	}
}

func TestBarrierCompletes(t *testing.T) {
	forEachSize(t, func(t *testing.T, p int, cfg Config) {
		err := Run(p, cfg, func(c *Comm) error {
			for i := 0; i < 5; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBcastAllAlgorithms(t *testing.T) {
	for _, algo := range []BcastAlgo{BcastAuto, BcastBinomial, BcastScatterAllgather, BcastPipelineRing} {
		for _, p := range sizesUnderTest {
			for _, n := range []int{0, 1, 13, 4096, 100000} {
				for root := 0; root < p; root += max(1, p-1) {
					name := fmt.Sprintf("algo=%d/p=%d/n=%d/root=%d", algo, p, n, root)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Model: testModel(), Bcast: algo}
						err := Run(p, cfg, func(c *Comm) error {
							buf := make([]byte, n)
							if c.Rank() == root {
								for i := range buf {
									buf[i] = byte((i*7 + 3) % 256)
								}
							}
							if err := c.Bcast(root, buf); err != nil {
								return err
							}
							for i := range buf {
								if buf[i] != byte((i*7+3)%256) {
									return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, buf[i])
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
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if err := c.Bcast(5, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	forEachSize(t, func(t *testing.T, p int, cfg Config) {
		for _, bs := range []int{1, 9, 1000} {
			err := Run(p, cfg, func(c *Comm) error {
				send := bytes.Repeat([]byte{byte(c.Rank() + 10)}, bs)
				recv := make([]byte, bs*c.Size())
				if err := c.Allgather(send, recv); err != nil {
					return err
				}
				for r := 0; r < c.Size(); r++ {
					for j := 0; j < bs; j++ {
						if recv[r*bs+j] != byte(r+10) {
							return fmt.Errorf("rank %d: block %d byte %d = %d", c.Rank(), r, j, recv[r*bs+j])
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("bs=%d: %v", bs, err)
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	forEachSize(t, func(t *testing.T, p int, cfg Config) {
		const bs = 4
		err := Run(p, cfg, func(c *Comm) error {
			send := make([]byte, bs*c.Size())
			for r := 0; r < c.Size(); r++ {
				for j := 0; j < bs; j++ {
					send[r*bs+j] = byte(c.Rank()*16 + r) // unique per (sender, dest)
				}
			}
			recv := make([]byte, bs*c.Size())
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
			for r := 0; r < c.Size(); r++ {
				want := byte(r*16 + c.Rank())
				for j := 0; j < bs; j++ {
					if recv[r*bs+j] != want {
						return fmt.Errorf("rank %d: from %d got %d want %d", c.Rank(), r, recv[r*bs+j], want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAlltoallValidation(t *testing.T) {
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if err := c.Alltoall(make([]byte, 4), make([]byte, 6)); err == nil {
			return fmt.Errorf("length mismatch accepted")
		}
		if err := c.Alltoall(make([]byte, 3), make([]byte, 3)); err == nil {
			return fmt.Errorf("non-divisible buffer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// expectedReduce computes the serial reduction of the test pattern
// send[i] = (rank+1) + i*0.25 across p ranks.
func expectedReduce(op Op, p int, i int) float64 {
	acc := 1 + float64(i)*0.25 // rank 0
	for r := 1; r < p; r++ {
		v := float64(r+1) + float64(i)*0.25
		switch op {
		case OpSum:
			acc += v
		case OpProd:
			acc *= v
		case OpMax:
			acc = math.Max(acc, v)
		case OpMin:
			acc = math.Min(acc, v)
		}
	}
	return acc
}

func TestAllreduceAllAlgorithms(t *testing.T) {
	algos := []AllreduceAlgo{AllreduceAuto, AllreduceRecursiveDoubling, AllreduceRabenseifner, AllreduceRing}
	for _, algo := range algos {
		for _, p := range sizesUnderTest {
			for _, n := range []int{1, 16, 1000, 4099} {
				t.Run(fmt.Sprintf("algo=%d/p=%d/n=%d", algo, p, n), func(t *testing.T) {
					cfg := Config{Model: testModel(), Allreduce: algo}
					err := Run(p, cfg, func(c *Comm) error {
						send := make([]float64, n)
						for i := range send {
							send[i] = float64(c.Rank()+1) + float64(i)*0.25
						}
						recv := make([]float64, n)
						if err := c.Allreduce(OpSum, send, recv); err != nil {
							return err
						}
						for i := 0; i < n; i++ {
							want := expectedReduce(OpSum, c.Size(), i)
							if math.Abs(recv[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
								return fmt.Errorf("rank %d elem %d = %v, want %v", c.Rank(), i, recv[i], want)
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
	}
}

func TestAllreduceMaxWithNegatives(t *testing.T) {
	err := Run(4, Config{Model: testModel()}, func(c *Comm) error {
		send := []float64{-float64(c.Rank()) - 1}
		recv := make([]float64, 1)
		if err := c.Allreduce(OpMax, send, recv); err != nil {
			return err
		}
		if recv[0] != -1 {
			return fmt.Errorf("max = %v, want -1", recv[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceScalar(t *testing.T) {
	err := Run(5, Config{Model: testModel()}, func(c *Comm) error {
		got, err := c.AllreduceScalar(OpSum, float64(c.Rank()))
		if err != nil {
			return err
		}
		if got != 10 { // 0+1+2+3+4
			return fmt.Errorf("scalar sum = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Different collectives issued consecutively must not cross-match
	// (distinct epochs produce distinct tag spaces).
	err := Run(4, Config{Model: testModel()}, func(c *Comm) error {
		buf := []byte{byte(c.Rank())}
		all := make([]byte, 4)
		for i := 0; i < 10; i++ {
			if err := c.Allgather(buf, all); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			s, err := c.AllreduceScalar(OpSum, 1)
			if err != nil {
				return err
			}
			if s != 4 {
				return fmt.Errorf("iter %d: sum = %v", i, s)
			}
			for r := 0; r < 4; r++ {
				if all[r] != byte(r) {
					return fmt.Errorf("iter %d: allgather[%d] = %d", i, r, all[r])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpSum: "sum", OpProd: "prod", OpMax: "max", OpMin: "min"} {
		if op.String() != want {
			t.Errorf("%v.String() = %q", int(op), op.String())
		}
	}
}
