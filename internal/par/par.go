// Package par is the shared-memory threading runtime used where the
// original study used OpenMP. It provides the two loop schedules the
// kernels and runners use: Block, the contiguous split of OpenMP's
// schedule(static), and ForEach, the one-index-at-a-time dynamic
// schedule for tasks of uneven cost. Team keeps a persistent group of
// workers for kernels that time sub-millisecond loops, and pinned teams
// lock their workers to OS threads (NewPinnedTeam, the analogue of
// OMP_PROC_BIND), which the NUMA placement probe in internal/mem builds
// on.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultThreads returns the default worker count, analogous to
// OMP_NUM_THREADS defaulting to the hardware concurrency.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// Block returns worker w's share [lo, hi) of [0, n) split into parts
// contiguous blocks, the remainder spread over the first workers —
// exactly as OpenMP's schedule(static) divides a loop. Workers past n
// get an empty block.
func Block(n, parts, w int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// ForEach executes body(i) for every i in [0, n) on a pool of threads
// workers (fewer than one means one) that take one index at a time —
// the dynamic schedule, for tasks of uneven cost such as experiment
// runs. One worker runs the loop inline. It blocks until all
// iterations complete.
func ForEach(n, threads int, body func(i int)) {
	threads = min(max(threads, 1), n)
	if threads <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for range threads {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				body(i)
			}
		}()
	}
	wg.Wait()
}
