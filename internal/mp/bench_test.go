package mp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
)

// Layer benchmarks of the simulated message path (ROADMAP item 1(b)):
// host cost per modelled message, with allocations, so a change to the
// payload path starts from a number. One op is one round trip
// (ping-pong) or one collective (alltoall); bytes/op is payload moved.

func simCfg() Config { return Config{Fabric: Sim, Model: cluster.IBCluster()} }

// pingPong runs n round trips of size bytes between ranks 0 and 1;
// start is called on rank 0 after two warm-up round trips.
func pingPong(c *Comm, size, n int, start func()) error {
	buf := make([]byte, size)
	for i := -2; i < n; i++ {
		if i == 0 && c.Rank() == 0 {
			start()
		}
		if c.Rank() == 0 {
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			if _, err := c.Recv(1, 1, buf); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 1, buf); err != nil {
				return err
			}
			if err := c.Send(0, 1, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

func BenchmarkSimPingPong(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"8B", 8}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(2 * int64(bc.size))
			err := Run(2, simCfg(), func(c *Comm) error {
				return pingPong(c, bc.size, b.N, b.ResetTimer)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkSimAlltoall(b *testing.B) {
	const ranks, block = 8, 1 << 10
	b.Run(fmt.Sprintf("%dx1KiB", ranks), func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(ranks * (ranks - 1) * block)
		err := Run(ranks, simCfg(), func(c *Comm) error {
			send, recv := make([]byte, ranks*block), make([]byte, ranks*block)
			for i := -2; i < b.N; i++ {
				if i == 0 {
					if err := c.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						b.ResetTimer()
					}
				}
				if err := c.Alltoall(send, recv); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// raceBuild reports whether the test binary was built with -race, where
// sync.Pool drops a quarter of all Puts by design and allocation budgets
// for pooled paths cannot hold.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSimPingPongAllocBudget: in steady state a 1 MiB rendezvous round
// trip allocates only its Request handles — the two payload buffers come
// from the transport's pool. Before the pool it allocated (and zeroed)
// more than 2 MiB.
func TestSimPingPongAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	// One P and no GC while counting: sync.Pool caches per P and is
	// emptied by the collector; neither is an allocation of the path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const trips = 64
	var before runtime.MemStats
	err := Run(2, simCfg(), func(c *Comm) error {
		return pingPong(c, 1<<20, trips, func() { runtime.ReadMemStats(&before) })
	})
	if err != nil {
		t.Fatal(err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if perTrip := (after.TotalAlloc - before.TotalAlloc) / trips; perTrip >= 4<<10 {
		t.Errorf("1 MiB Sim ping-pong allocates %d bytes per round trip, budget 4 KiB", perTrip)
	}
}

// BenchmarkP2PPingPongInProc measures the runtime's real (wall-clock)
// small-message half round trip on the in-process fabric.
func BenchmarkP2PPingPongInProc(b *testing.B) {
	for _, size := range []int{8, 4096, 65536} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			err := Run(2, Config{Fabric: InProc}, func(c *Comm) error {
				buf := make([]byte, size)
				peer := 1 - c.Rank()
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(peer, 1, buf); err != nil {
							return err
						}
						if _, err := c.Recv(peer, 1, buf); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(peer, 1, buf); err != nil {
							return err
						}
						if err := c.Send(peer, 1, buf); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce measures the real cost of an 8-rank allreduce on
// the in-process fabric for each algorithm.
func BenchmarkAllreduce(b *testing.B) {
	algos := map[string]AllreduceAlgo{
		"recdoubling":  AllreduceRecursiveDoubling,
		"rabenseifner": AllreduceRabenseifner,
		"ring":         AllreduceRing,
	}
	for name, algo := range algos {
		b.Run(name, func(b *testing.B) {
			err := Run(8, Config{Fabric: InProc, Allreduce: algo}, func(c *Comm) error {
				in := make([]float64, 4096)
				out := make([]float64, 4096)
				for i := 0; i < b.N; i++ {
					if err := c.Allreduce(OpSum, in, out); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
