// Package par is the shared-memory threading runtime used where the
// original study used OpenMP. It provides parallel-for loops over index
// ranges with the three classic schedules (static, dynamic, guided),
// persistent worker teams (Team), and pinned teams whose workers are
// locked to OS threads (NewPinnedTeam, the analogue of OMP_PROC_BIND,
// which the NUMA placement probe in internal/mem builds on).
//
// The design mirrors an OpenMP runtime closely enough that scheduling
// effects measured by the benchmarks (static imbalance vs dynamic
// overhead, guided's tapering chunks) reproduce the shapes seen on a real
// OpenMP implementation, while being pure Go underneath.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Schedule selects how loop iterations are assigned to workers.
type Schedule int

const (
	// Static divides the iteration space into one contiguous block per
	// worker up-front (OpenMP schedule(static)). Lowest overhead; load
	// imbalance if iteration costs vary.
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared counter
	// (OpenMP schedule(dynamic,chunk)). Balances load at the cost of
	// one atomic per chunk.
	Dynamic
	// Guided hands out exponentially shrinking chunks, proportional to
	// the remaining work divided by the worker count
	// (OpenMP schedule(guided)).
	Guided
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// DefaultThreads returns the default worker count, analogous to
// OMP_NUM_THREADS defaulting to the hardware concurrency.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// Options configures a parallel loop.
type Options struct {
	Threads  int      // worker count; <=0 means DefaultThreads()
	Schedule Schedule // iteration schedule; default Static
	Chunk    int      // chunk size for Dynamic/Guided; <=0 means 1 (dynamic) / auto (guided)
}

func (o Options) normalize(n int) Options {
	if o.Threads <= 0 {
		o.Threads = DefaultThreads()
	}
	if o.Threads > n && n > 0 {
		o.Threads = n
	}
	if o.Chunk <= 0 {
		o.Chunk = 1
	}
	return o
}

// ForEach executes body(i) for every i in [0, n) on a pool of threads
// workers (fewer than one means one) that take one index at a time —
// the dynamic schedule, for tasks of uneven cost such as experiment
// runs. It blocks until all iterations complete.
func ForEach(n, threads int, body func(i int)) {
	ForOpt(n, Options{Threads: max(threads, 1), Schedule: Dynamic}, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForOpt executes body over chunks of [0, n) according to opts. The body
// receives a half-open index range [lo, hi) plus the worker id in
// [0, Threads), which callers use for per-thread accumulators.
func ForOpt(n int, opts Options, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	opts = opts.normalize(n)
	if opts.Threads == 1 {
		body(0, n, 0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(opts.Threads)
	switch opts.Schedule {
	case Static:
		// Contiguous blocks, remainder spread over the first workers,
		// exactly as schedule(static) does.
		base := n / opts.Threads
		rem := n % opts.Threads
		lo := 0
		for w := 0; w < opts.Threads; w++ {
			size := base
			if w < rem {
				size++
			}
			hi := lo + size
			go func(lo, hi, w int) {
				defer wg.Done()
				if lo < hi {
					body(lo, hi, w)
				}
			}(lo, hi, w)
			lo = hi
		}
	case Dynamic:
		var next int64
		chunk := opts.Chunk
		for w := 0; w < opts.Threads; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
					if lo >= n {
						return
					}
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					body(lo, hi, w)
				}
			}(w)
		}
	case Guided:
		var next int64
		minChunk := opts.Chunk
		for w := 0; w < opts.Threads; w++ {
			go func(w int) {
				defer wg.Done()
				for {
					for {
						cur := atomic.LoadInt64(&next)
						if int(cur) >= n {
							return
						}
						remaining := n - int(cur)
						chunk := remaining / opts.Threads
						if chunk < minChunk {
							chunk = minChunk
						}
						if chunk > remaining {
							chunk = remaining
						}
						if atomic.CompareAndSwapInt64(&next, cur, cur+int64(chunk)) {
							body(int(cur), int(cur)+chunk, w)
							break
						}
					}
				}
			}(w)
		}
	default:
		panic(fmt.Sprintf("par: unknown schedule %v", opts.Schedule))
	}
	wg.Wait()
}
