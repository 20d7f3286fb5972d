package par

import (
	"fmt"
	"runtime"
	"sync"
)

// Team is a persistent group of workers, the analogue of an OpenMP
// parallel region that is entered repeatedly. Creating goroutines per
// loop is cheap in Go but not free; STREAM-style kernels that time
// sub-millisecond loops use a Team to keep workers hot and measure only
// the loop body plus the join, matching how OpenMP runtimes behave.
type Team struct {
	n      int
	pinned bool
	work   []chan func(worker int)
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// NewTeam starts a team of n workers (n<=0 means DefaultThreads()).
// The caller must Close the team when finished with it.
func NewTeam(n int) *Team { return newTeam(n, false) }

// NewPinnedTeam starts a team whose workers are locked to their OS
// threads (runtime.LockOSThread) for the team's lifetime and, on
// Linux, bound round-robin to distinct allowed CPUs
// (sched_setaffinity) — the Go analogue of OpenMP thread pinning
// (OMP_PROC_BIND). Pinning is what makes NUMA placement observable: on
// first-touch operating systems a page stays on the node of the thread
// that faulted it in, so a probe that first-touches from one pinned
// worker and chases from another measures a stable local/remote
// relationship instead of whichever core the scheduler migrated the
// thread onto. Off Linux (or when setting affinity fails) workers are
// thread-locked but not CPU-bound, so placement is best-effort. See
// mem.NUMALadder for the probe this was built for.
func NewPinnedTeam(n int) *Team { return newTeam(n, true) }

func newTeam(n int, pinned bool) *Team {
	if n <= 0 {
		n = DefaultThreads()
	}
	t := &Team{
		n:      n,
		pinned: pinned,
		work:   make([]chan func(int), n),
		done:   make(chan struct{}),
	}
	for w := 0; w < n; w++ {
		t.work[w] = make(chan func(int))
		t.wg.Add(1)
		go t.worker(w)
	}
	return t
}

func (t *Team) worker(w int) {
	defer t.wg.Done()
	if t.pinned {
		// Lock for the worker's whole lifetime, and deliberately never
		// unlock: pinToCPU narrows this OS thread's affinity to one
		// CPU, and exiting the goroutine while still locked makes the
		// runtime destroy the thread rather than return it — with the
		// single-CPU mask intact — to the scheduler pool, where it
		// would silently confine unrelated goroutines after Close.
		runtime.LockOSThread()
		pinToCPU(w)
	}
	for {
		select {
		case f := <-t.work[w]:
			f(w)
		case <-t.done:
			return
		}
	}
}

// Size returns the number of workers in the team.
func (t *Team) Size() int { return t.n }

// Pinned reports whether the team's workers are locked to OS threads.
func (t *Team) Pinned() bool { return t.pinned }

// Run executes body(worker) on every worker and blocks until all return.
// Panics in the body are re-raised on the calling goroutine.
func (t *Team) Run(body func(worker int)) {
	var wg sync.WaitGroup
	wg.Add(t.n)
	panics := make([]any, t.n)
	for w := 0; w < t.n; w++ {
		t.work[w] <- func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			body(w)
		}
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("par: worker panicked: %v", p))
		}
	}
}

// ForStatic runs a statically scheduled loop over [0, n) on the team:
// worker w gets Block(n, Size(), w).
func (t *Team) ForStatic(n int, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	t.Run(func(w int) {
		if lo, hi := Block(n, t.n, w); lo < hi {
			body(lo, hi, w)
		}
	})
}

// Close shuts the team down. It is safe to call multiple times.
func (t *Team) Close() {
	t.once.Do(func() {
		close(t.done)
		t.wg.Wait()
	})
}
