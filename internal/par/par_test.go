package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	const n = 1000
	hit := make([]int32, n)
	ForOpt(n, Options{}, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hit[i], 1)
		}
	})
	// ForEach at no, one (inline) and several workers: once more each.
	for _, threads := range []int{0, 1, 4} {
		ForEach(n, threads, func(i int) { atomic.AddInt32(&hit[i], 1) })
	}
	for i, h := range hit {
		if h != 4 {
			t.Fatalf("index %d visited %d times, want 4", i, h)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	ForOpt(0, Options{}, func(int, int, int) { called = true })
	ForEach(-5, 4, func(int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestForOptSchedulesCoverExactly(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		for _, threads := range []int{1, 2, 3, 7, 16} {
			for _, n := range []int{1, 2, 16, 97, 1000} {
				hit := make([]int32, n)
				ForOpt(n, Options{Threads: threads, Schedule: sched, Chunk: 3},
					func(lo, hi, w int) {
						if w < 0 || w >= threads {
							t.Errorf("worker id %d out of range", w)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hit[i], 1)
						}
					})
				for i, h := range hit {
					if h != 1 {
						t.Fatalf("%v t=%d n=%d: index %d visited %d times",
							sched, threads, n, i, h)
					}
				}
			}
		}
	}
}

func TestForOptChunkRespected(t *testing.T) {
	// Dynamic with chunk=10 over n=100 must call the body in chunks of
	// exactly 10 (n divides evenly).
	var mu sync.Mutex
	var sizes []int
	ForOpt(100, Options{Threads: 4, Schedule: Dynamic, Chunk: 10},
		func(lo, hi, _ int) {
			mu.Lock()
			sizes = append(sizes, hi-lo)
			mu.Unlock()
		})
	if len(sizes) != 10 {
		t.Fatalf("expected 10 chunks, got %d", len(sizes))
	}
	for _, s := range sizes {
		if s != 10 {
			t.Errorf("chunk size %d, want 10", s)
		}
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	// With one worker, guided chunks must be non-increasing and the
	// first chunk must be ~n/threads... with threads=1 the first chunk
	// is the whole range; use 4 logical threads but a single-threaded
	// verification via Chunk accounting instead: run with Threads=2 and
	// just validate coverage plus that at least one chunk is bigger
	// than the minimum (i.e. guided actually hands out large chunks).
	var mu sync.Mutex
	var sizes []int
	ForOpt(1000, Options{Threads: 2, Schedule: Guided, Chunk: 4},
		func(lo, hi, _ int) {
			mu.Lock()
			sizes = append(sizes, hi-lo)
			mu.Unlock()
		})
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	if maxSize <= 4 {
		t.Errorf("guided never produced a chunk larger than the minimum; sizes=%v", sizes)
	}
}

func TestForOptSingleThreadInline(t *testing.T) {
	// Threads=1 must execute inline as one chunk.
	calls := 0
	ForOpt(50, Options{Threads: 1}, func(lo, hi, w int) {
		calls++
		if lo != 0 || hi != 50 || w != 0 {
			t.Errorf("inline chunk = [%d,%d) w=%d", lo, hi, w)
		}
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestForOptThreadsClampedToN(t *testing.T) {
	// More threads than iterations: worker ids must stay < n.
	ForOpt(3, Options{Threads: 16}, func(lo, hi, w int) {
		if w >= 3 {
			t.Errorf("worker id %d not clamped", w)
		}
	})
}

func TestTeamRunEveryWorker(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var hits [4]int32
	for rep := 0; rep < 10; rep++ {
		team.Run(func(w int) { atomic.AddInt32(&hits[w], 1) })
	}
	for w, h := range hits {
		if h != 10 {
			t.Errorf("worker %d ran %d times, want 10", w, h)
		}
	}
}

func TestTeamForStatic(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	const n = 100
	hit := make([]int32, n)
	team.ForStatic(n, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hit[i], 1)
		}
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestTeamForStaticEmpty(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	team.ForStatic(0, func(lo, hi, w int) { t.Error("called on empty range") })
}

func TestTeamPanicPropagates(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	defer func() {
		if recover() == nil {
			t.Error("panic in worker body was swallowed")
		}
	}()
	team.Run(func(w int) {
		if w == 1 {
			panic("boom")
		}
	})
}

func TestTeamCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // must not panic or deadlock
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Error("Schedule.String wrong")
	}
	if Schedule(42).String() != "Schedule(42)" {
		t.Error("unknown schedule string wrong")
	}
}

// TestPinnedTeam asserts a pinned team behaves like a regular team —
// every worker runs, static loops cover the range — while reporting
// its pinning, which the NUMA probe in internal/mem relies on.
func TestPinnedTeam(t *testing.T) {
	team := NewPinnedTeam(3)
	defer team.Close()
	if !team.Pinned() {
		t.Error("NewPinnedTeam not pinned")
	}
	if team.Size() != 3 {
		t.Errorf("size = %d, want 3", team.Size())
	}
	var ran [3]int32
	team.Run(func(w int) { atomic.AddInt32(&ran[w], 1) })
	for w, n := range ran {
		if n != 1 {
			t.Errorf("worker %d ran %d times, want 1", w, n)
		}
	}
	var sum int64
	var mu sync.Mutex
	team.ForStatic(100, func(lo, hi, _ int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		mu.Lock()
		sum += local
		mu.Unlock()
	})
	if sum != 4950 {
		t.Errorf("pinned ForStatic sum = %d, want 4950", sum)
	}
	plain := NewTeam(2)
	defer plain.Close()
	if plain.Pinned() {
		t.Error("NewTeam reports pinned")
	}
}
