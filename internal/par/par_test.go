package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	const n = 1000
	hit := make([]int32, n)
	// ForEach at no, one (inline), several and the default workers.
	for _, threads := range []int{0, 1, 4, DefaultThreads()} {
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
	ForEach(0, 4, func(int) { called = true })
	ForEach(-5, 4, func(int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestForOptSchedulesCoverExactly(t *testing.T) {
	// Both schedules visit every index once: Block's parts tile [0, n)
	// in order with sizes differing by at most one, and ForEach's
	// workers share it dynamically.
	for _, threads := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{1, 2, 16, 97, 1000} {
			next := 0
			for w := 0; w < threads; w++ {
				lo, hi := Block(n, threads, w)
				if lo != next || hi < lo || hi-lo > n/threads+1 || hi-lo < n/threads {
					t.Fatalf("Block(%d, %d, %d) = [%d,%d), want a block starting at %d", n, threads, w, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("Block(%d, %d, ...) covers [0,%d)", n, threads, next)
			}
			hit := make([]int32, n)
			ForEach(n, threads, func(i int) { atomic.AddInt32(&hit[i], 1) })
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("ForEach t=%d n=%d: index %d visited %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestForOptSingleThreadInline(t *testing.T) {
	// One worker runs inline, in index order, and one block is the
	// whole range.
	next := 0
	ForEach(50, 1, func(i int) {
		if i != next {
			t.Errorf("inline loop visited %d, want %d", i, next)
		}
		next++
	})
	if next != 50 {
		t.Errorf("inline loop ran %d iterations, want 50", next)
	}
	if lo, hi := Block(50, 1, 0); lo != 0 || hi != 50 {
		t.Errorf("Block(50, 1, 0) = [%d,%d)", lo, hi)
	}
}

func TestForOptThreadsClampedToN(t *testing.T) {
	// More workers than iterations: the first n get one index each and
	// the rest get empty blocks.
	for w := 0; w < 16; w++ {
		lo, hi := Block(3, 16, w)
		if want := min(w, 3); lo != want || hi != min(w+1, 3) {
			t.Errorf("Block(3, 16, %d) = [%d,%d)", w, lo, hi)
		}
	}
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
