package osu

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mp"
)

// BenchmarkLatencyCurve is the layer benchmark of a point-to-point sweep
// as internal/core runs it (ROADMAP item 1(b)): the quick-scale size
// ladder on every core of the 8-node machine, the other 62 of the 64
// ranks staying idle. One op is one whole curve; bytes/op is payload
// moved.
func BenchmarkLatencyCurve(b *testing.B) {
	opts := Options{Sizes: []int{0, 8, 256, 4096, 65536, 1 << 20}, Warmup: 5, Iters: 50, PairB: 63}
	var moved int64
	for _, size := range opts.Sizes {
		warm, iters := opts.loops(size)
		moved += 2 * int64(warm+iters) * int64(size)
	}
	b.Run("64ranks", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(moved)
		for i := 0; i < b.N; i++ {
			err := mp.Run(64, simCfg(), func(c *mp.Comm) error {
				_, err := Latency(c, opts)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
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

// TestLatencyIdleRanksAllocateNothing: a 16-rank sweep up to 1 MiB stays
// under 6 MiB of total allocation — one max-size buffer on each pair
// rank, pooled payloads in flight, and per-rank runtime state. When every
// rank allocated a buffer per size the 14 idle ranks alone cost 14 MiB.
func TestLatencyIdleRanksAllocateNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	// One P and no GC while counting: sync.Pool caches per P and is
	// emptied by the collector; neither is an allocation of the path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := Options{Sizes: []int{0, 8, 1 << 20}, Warmup: 2, Iters: 20}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := mp.Run(16, simCfg(), func(c *mp.Comm) error {
		_, err := Latency(c, opts)
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 6<<20 {
		t.Errorf("16-rank Latency over %v allocated %d bytes, budget 6 MiB", opts.Sizes, got)
	}
}
