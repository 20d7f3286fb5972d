package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/lru"
	"repro/internal/obs"
)

// key identifies one cached result: which experiment at which scale
// on which platform preset ("" = the experiment's default set).
type key struct {
	id  string
	req core.Request
}

// entry is one cache slot. done is closed when the fill completes;
// until then, requests for the same key wait on it instead of
// re-running the experiment. set and err are written before
// close(done) and never mutated after, so waiters read them without
// further locking.
//
// While the fill runs, the entry also holds its progress: the phase
// and section events so far, and the jobs following them. Every job on
// the key, the fill's owner or a waiter, streams the same events;
// complete drops both, so a job on a filled key streams none.
type entry struct {
	done chan struct{}
	set  resultSet
	err  error

	mu        sync.Mutex   // guards events and followers; done closes under it
	events    []jobs.Event // only Type and Data are set
	followers []*jobs.Job
}

// follow replays the fill's events so far to j and subscribes it to
// the rest. A nil job, or a fill already complete, gets nothing.
func (e *entry) follow(j *jobs.Job) {
	if j == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.done:
		return
	default:
	}
	for _, ev := range e.events {
		j.Emit(ev.Type, ev.Data)
	}
	e.followers = append(e.followers, j)
}

// emit records one progress event of the fill and posts it to every
// follower, under the entry's lock, so followers see one order.
func (e *entry) emit(typ string, data map[string]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, jobs.Event{Type: typ, Data: data})
	for _, j := range e.followers {
		j.Emit(typ, data)
	}
}

// complete ends the fill: the progress goes, and waiters wake.
func (e *entry) complete() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events, e.followers = nil, nil
	close(e.done)
}

// cache is the per-(id, scale, platform) result store with
// single-flight fills: a cold key requested by N goroutines triggers exactly one
// execution; the other N-1 wait on the winner's entry. Failed fills
// are not retained, so a later request retries.
//
// Custom-platform keys live in their own LRU namespace: completed
// entries whose platform is a custom-<hash> name count against
// DefaultCustomCacheEntries, and the least recently used is dropped
// past it. Preset
// and default-platform keys are never in that namespace, so a churn of
// hostile or throwaway custom registrations can fill only its own
// quota — it can never evict a preset result.
type cache struct {
	mu      sync.Mutex
	entries map[key]*entry

	// custom orders the completed custom-platform keys by recency and
	// bounds how many are held.
	custom *lru.Cache[key, struct{}]

	// waits records how long hits blocked on an entry's done channel:
	// ~0 for filled entries, the remaining run time for in-flight ones.
	waits *obs.Histogram
}

func newCache(waits *obs.Histogram) *cache {
	return &cache{entries: map[key]*entry{}, custom: lru.New[key, struct{}](DefaultCustomCacheEntries), waits: waits}
}

// noteCustom records a completed custom-platform entry as most
// recently used and evicts past the namespace quota. Only successful,
// finished entries are ever noted, so eviction never drops an
// in-flight fill out from under its waiters.
func (c *cache) noteCustom(k key) {
	if !cluster.IsCustomName(k.req.Platform) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if victim, evicted := c.custom.Put(k, struct{}{}); evicted {
		delete(c.entries, victim)
	}
}

// get returns the result set for k, running fill exactly once if the
// key is cold no matter how many goroutines ask concurrently. fill
// gets the hooks that turn the run's instrumentation into the entry's
// progress events; a non-nil j follows them, whether this call owns
// the fill or waits on it, and an owner job's ID is stamped on the
// run's trace. hit reports whether the entry already existed (filled
// or in flight) — i.e. this call did not trigger the fill. A failed
// fill's error (and whatever set came with it) goes to its caller and
// every waiter.
func (c *cache) get(k key, j *jobs.Job, fill func(core.RunHooks) (resultSet, error)) (_ resultSet, hit bool, _ error) {
	c.mu.Lock()
	e, hit := c.entries[k]
	if !hit {
		e = &entry{done: make(chan struct{})}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.follow(j)
	if hit {
		t0 := time.Now()
		<-e.done
		c.waits.ObserveSince(t0)
	} else {
		e.set, e.err = safeFill(func() (resultSet, error) { return fill(e.hooks(j)) })
		if e.err != nil {
			c.mu.Lock()
			delete(c.entries, k)
			c.mu.Unlock()
		}
		e.complete()
	}
	if e.err == nil {
		c.noteCustom(k)
	}
	return e.set, hit, e.err
}

// safeFill converts a panicking fill into an error, so the entry is
// always completed — a hung, never-closed done channel would block
// every future request for the key (net/http recovers handler panics
// and keeps the process serving). It is the fill path's one recover;
// the set it makes of a panic has tier "run", as a failed run's has.
func safeFill(fill func() (resultSet, error)) (rs resultSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			rs, err = resultSet{tier: "run"}, fmt.Errorf("experiment run panicked: %v", r)
		}
	}()
	return fill()
}

// len reports the number of cached entries, in-flight fills included.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
