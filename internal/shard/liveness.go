// Shard liveness, learned from the hops the router already makes
// (Router.do records each one). A transport failure opens a "down
// until" window, twice as long after each consecutive failure up to a
// cap; any response, of any status, closes it. Routing tries a shard
// inside its window last, and the first request after it is the probe.
package shard

import (
	"sync"
	"time"
)

const (
	downBase = 2 * time.Second // the window a first failure opens
	// downCap ends the doubling at 2, 4, 8, 16, 30 s: a dead shard costs
	// one failed hop per 30 s, and a restarted one is back in rotation
	// within 30 s even when nothing scrapes /healthz.
	downCap      = 30 * time.Second
	probeTimeout = time.Second // bounds /healthz probes
)

// liveness maps each shard, fixed at New, to its window.
type liveness struct {
	now func() time.Time
	win map[string]*window
}

// window is one shard's state. The zero value is up, and every shard
// starts there: a router that starts a beat before its shards should
// try them, not 503 its first requests.
type window struct {
	mu      sync.Mutex
	until   time.Time     // routing tries the shard last before this
	backoff time.Duration // this window's length; 0 while up
}

// record notes one hop's outcome and reports whether it flipped the
// shard between up and down.
func (l *liveness) record(shard string, ok bool) (flipped bool) {
	w := l.win[shard]
	w.mu.Lock()
	defer w.mu.Unlock()
	wasUp := w.backoff == 0
	if ok {
		w.until, w.backoff = time.Time{}, 0
		return !wasUp
	}
	w.backoff = min(max(2*w.backoff, downBase), downCap)
	w.until = l.now().Add(w.backoff)
	return wasUp
}

// isUp reports whether the last hop to shard did not fail at the
// transport.
func (l *liveness) isUp(shard string) bool {
	w := l.win[shard]
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.backoff == 0
}

// backingOff reports whether shard's window is still open.
func (l *liveness) backingOff(shard string) bool {
	w := l.win[shard]
	w.mu.Lock()
	defer w.mu.Unlock()
	return l.now().Before(w.until)
}

// upCount reports how many shards are up.
func (l *liveness) upCount() int {
	n := 0
	for s := range l.win {
		if l.isUp(s) {
			n++
		}
	}
	return n
}
