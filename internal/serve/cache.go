package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
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
type entry struct {
	done chan struct{}
	set  resultSet
	err  error
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

	// waits, when set, records how long hits blocked on an entry's
	// done channel: ~0 for filled entries, the remaining run time for
	// in-flight ones. Nil-safe (obs instruments no-op on nil).
	waits *obs.Histogram
}

func newCache() *cache {
	return &cache{entries: map[key]*entry{}, custom: lru.New[key, struct{}](DefaultCustomCacheEntries)}
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
// key is cold no matter how many goroutines ask concurrently. hit
// reports whether the entry already existed (filled or in flight) —
// i.e. this call did not trigger the fill. A failed fill's error (and
// whatever set came with it) goes to its caller and every waiter.
func (c *cache) get(k key, fill func() (resultSet, error)) (_ resultSet, hit bool, _ error) {
	c.mu.Lock()
	e, hit := c.entries[k]
	if hit {
		c.mu.Unlock()
		t0 := time.Now()
		<-e.done
		c.waits.ObserveSince(t0)
	} else {
		e = &entry{done: make(chan struct{})}
		c.entries[k] = e
		c.mu.Unlock()

		e.set, e.err = safeFill(fill)
		if e.err != nil {
			c.mu.Lock()
			delete(c.entries, k)
			c.mu.Unlock()
		}
		close(e.done)
	}
	if e.err == nil {
		c.noteCustom(k)
	}
	return e.set, hit, e.err
}

// safeFill converts a panicking fill into an error, so the entry is
// always completed — a hung, never-closed done channel would block
// every future request for the key (net/http recovers handler panics
// and keeps the process serving).
func safeFill(fill func() (resultSet, error)) (rs resultSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			rs, err = resultSet{}, fmt.Errorf("experiment run panicked: %v", r)
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

// has reports whether k is cached or being filled.
func (c *cache) has(k key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}
