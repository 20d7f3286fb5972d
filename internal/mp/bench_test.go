package mp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// Layer benchmarks of the simulated message path (ROADMAP item 1(b)):
// host cost per modelled message, with allocations, so a change to the
// payload path starts from a number. One op is one round trip
// (ping-pong) or one collective (alltoall); bytes/op is payload moved.

func simCfg() Config { return Config{Model: testModel()} }

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
// trip allocates next to nothing — the two payload buffers come from the
// fabric's pool. Before the pool it allocated (and zeroed) more than
// 2 MiB.
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

// TestMessagePathAllocatesNothing: in a warmed world the blocking
// operations and the collectives built on them allocate nothing per
// call. Eager sends return the Comm's completed request, the blocking
// calls fill its two request slots, the mailbox hands over batches in
// two alternating slices, payloads come from the pool, and size-only
// reductions take their scratch from SizeOnlyBuf. Under -race the
// operations still run, but sync.Pool drops Puts there, so the counts
// are not checked.
func TestMessagePathAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, runs = 8, 100
	type bufs struct {
		msg, send, recv []byte
		vec             []float64
	}
	ops := []struct {
		name string
		f    func(c *Comm, b *bufs) error
	}{
		{"Send-Recv", func(c *Comm, b *bufs) error {
			peer := c.Rank() ^ 1
			if c.Rank()%2 == 0 {
				if err := c.Send(peer, 1, b.msg); err != nil {
					return err
				}
				_, err := c.Recv(peer, 1, b.msg)
				return err
			}
			if _, err := c.Recv(peer, 1, b.msg); err != nil {
				return err
			}
			return c.Send(peer, 1, b.msg)
		}},
		{"SendRecv", func(c *Comm, b *bufs) error {
			p := c.Size()
			_, err := c.SendRecv((c.Rank()+1)%p, 1, b.msg, (c.Rank()+p-1)%p, 1, b.recv[:len(b.msg)])
			return err
		}},
		{"Barrier", func(c *Comm, b *bufs) error { return c.Barrier() }},
		{"Alltoall", func(c *Comm, b *bufs) error { return c.Alltoall(b.send, b.recv) }},
		{"SizeOnly-Allreduce", func(c *Comm, b *bufs) error {
			return c.SizeOnly(func() error { return c.Allreduce(OpSum, b.vec, b.vec) })
		}},
	}
	for _, p := range []int{2, 4} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("p=%d/%s", p, op.name), func(t *testing.T) {
				var allocs float64
				err := Run(p, simCfg(), func(c *Comm) error {
					b := &bufs{
						msg:  make([]byte, 8),
						send: make([]byte, 64*p),
						recv: make([]byte, 64*p),
						vec:  SizeOnlyBuf[float64](4096),
					}
					for range warm {
						if err := op.f(c, b); err != nil {
							return err
						}
					}
					var err error
					call := func() {
						if e := op.f(c, b); err == nil {
							err = e
						}
					}
					if c.Rank() == 0 {
						allocs = testing.AllocsPerRun(runs, call)
					} else {
						for range runs + 1 { // AllocsPerRun adds a warm-up call
							call()
						}
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				if allocs != 0 && !raceBuild() {
					t.Errorf("%v allocations per call, want 0", allocs)
				}
			})
		}
	}
}

// BenchmarkAllreduce measures the host cost of an 8-rank allreduce for
// each algorithm.
func BenchmarkAllreduce(b *testing.B) {
	algos := map[string]AllreduceAlgo{
		"recdoubling":  AllreduceRecursiveDoubling,
		"rabenseifner": AllreduceRabenseifner,
		"ring":         AllreduceRing,
	}
	for name, algo := range algos {
		b.Run(name, func(b *testing.B) {
			err := Run(8, Config{Model: testModel(), Allreduce: algo}, func(c *Comm) error {
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
