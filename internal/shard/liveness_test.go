// Liveness tests: the backoff windows on a fake clock, candidate order
// around an open and an expired window, /healthz probing on demand, a
// router that runs nothing in the background, and a -race stress over
// a flapping shard.
package shard

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestLivenessBackoff: consecutive failures open windows of base,
// 2×base, 4×base… up to the cap; a response closes the window and
// resets the backoff; an expired window leaves the shard down for
// reporting but a routing candidate again.
func TestLivenessBackoff(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := &liveness{now: func() time.Time { return clock }, win: map[string]*window{"a": {}, "b": {}}}

	wantWindows := []time.Duration{downBase, 2 * downBase, 4 * downBase, 8 * downBase, downCap, downCap}
	for i, want := range wantWindows {
		if changed := l.record("a", false); changed != (i == 0) {
			t.Errorf("failure %d: changed = %v, want %v", i+1, changed, i == 0)
		}
		if got := l.win["a"].until.Sub(clock); got != want {
			t.Errorf("failure %d: window %v, want %v", i+1, got, want)
		}
		if l.isUp("a") || !l.backingOff("a") {
			t.Errorf("failure %d: up=%v backingOff=%v, want down and backing off", i+1, l.isUp("a"), l.backingOff("a"))
		}
		clock = clock.Add(want - time.Nanosecond)
		if !l.backingOff("a") {
			t.Errorf("failure %d: window closed a nanosecond early", i+1)
		}
		clock = clock.Add(time.Nanosecond)
		if l.backingOff("a") || l.isUp("a") {
			t.Errorf("failure %d: at expiry backingOff=%v up=%v, want a candidate still reported down",
				i+1, l.backingOff("a"), l.isUp("a"))
		}
	}
	if got := l.upCount(); got != 1 {
		t.Errorf("upCount = %d, want 1", got)
	}

	if !l.record("a", true) {
		t.Error("a success after failures did not report the flip")
	}
	if w := l.win["a"]; !w.until.IsZero() || w.backoff != 0 {
		t.Errorf("after success: until %v backoff %v, want the zero window", w.until, w.backoff)
	}
	if l.record("a", true) {
		t.Error("a success while up reported a flip")
	}
	l.record("a", false)
	if got := l.win["a"].until.Sub(clock); got != downBase {
		t.Errorf("first failure after a reset: window %v, want %v", got, downBase)
	}
	if w := l.win["b"]; !w.until.IsZero() || w.backoff != 0 {
		t.Error("another shard's record moved")
	}
}

// TestCandidatesAroundWindow: a shard inside its window is tried last;
// once the window expires it is back in ring order, so the next
// request for its keys is the probe.
func TestCandidatesAroundWindow(t *testing.T) {
	rt, err := New(Config{Shards: []string{"host1:8080", "host2:8080", "host3:8080"}})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	rt.live.now = func() time.Time { return clock }
	key := Key("T1", "quick", "")
	ringOrder := rt.candidates(key)
	owner := ringOrder[0]

	rt.observe(owner, false)
	got := rt.candidates(key)
	if want := append(append([]string{}, ringOrder[1:]...), owner); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("inside the window: %v, want %v", got, want)
	}
	clock = clock.Add(downBase)
	if got := rt.candidates(key); strings.Join(got, " ") != strings.Join(ringOrder, " ") {
		t.Errorf("after expiry: %v, want ring order %v", got, ringOrder)
	}
}

// TestHealthzProbesOnDemand: a shard that dies before any request
// reads down on the router's first /healthz, and one that comes back
// on its address reads up on the next — no request, no background
// loop in between.
func TestHealthzProbesOnDemand(t *testing.T) {
	p := newTestPool(t, 2, Config{}, nil)
	dead := p.urls[1]
	addr := p.shards[1].Listener.Addr().String()
	p.shards[1].Close()

	_, body := get(t, p.proxy.URL+"/healthz", nil)
	for _, want := range []string{"ok ", "shards_up=1", "shards_total=2", "shard[" + dead + "]=down", "shard[" + p.urls[0] + "]=up"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("first healthz %q missing %q", body, want)
		}
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s to restart the shard: %v", addr, err)
	}
	back := httptest.NewUnstartedServer(serve.New(serve.Config{RunFunc: stubRun(nil)}))
	back.Listener.Close()
	back.Listener = l
	back.Start()
	t.Cleanup(back.Close)
	_, body = get(t, p.proxy.URL+"/healthz", nil)
	if !strings.Contains(string(body), "shards_up=2") || !strings.Contains(string(body), "shard["+dead+"]=up") {
		t.Errorf("healthz after the restart %q, want the shard back up", body)
	}
}

// TestRouterStartsNoGoroutine: with no requests, a router costs no
// goroutine.
func TestRouterStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	rt, err := New(Config{Shards: []string{"host1:8080", "host2:8080"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("New started %d goroutines", after-before)
	}
}

// TestFlappingShardStress runs routed GETs, submits with status
// lookups, and /healthz scrapes against a pool whose second shard
// flips between serving and closing connections unanswered. While the
// first shard is healthy nothing may answer 5xx — except a status
// lookup for a job the flapping shard accepted, which no other shard
// can answer for. Run it under -race.
func TestFlappingShardStress(t *testing.T) {
	var closing atomic.Bool
	p := newTestPool(t, 2, Config{}, func(i int, next http.Handler) http.Handler {
		if i == 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !closing.Load() {
				next.ServeHTTP(w, r)
				return
			}
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
		})
	})
	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				closing.Store(!closing.Load())
			}
		}
	}()

	ids := []string{"T1", "T3", "M3", "M4", "F1", "F2"}
	// call is get for the workers: t.Fatal must stay on the test's
	// own goroutine.
	call := func(method, url string) (int, []byte) {
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, url, err)
			return 0, nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	check := func(what string, code int, body []byte) {
		if code >= 500 {
			t.Errorf("%s: %d %s", what, code, body)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ids[(w+i)%len(ids)]
				switch i % 3 {
				case 0:
					code, body := call(http.MethodGet, p.proxy.URL+"/experiments/"+id)
					check("GET "+id, code, body)
				case 1:
					code, body := call(http.MethodPost, p.proxy.URL+"/runs?id="+id)
					check("POST /runs "+id, code, body)
					var sub struct {
						Job string `json:"job"`
					}
					if json.Unmarshal(body, &sub) != nil || sub.Job == "" {
						continue
					}
					scode, sbody := call(http.MethodGet, p.proxy.URL+"/runs/"+sub.Job)
					// Only a job the healthy shard holds must answer:
					// one the flapping shard accepted is lost while that
					// shard closes connections, and its lookup 502s.
					if owned, _ := call(http.MethodGet, p.urls[0]+"/runs/"+sub.Job); owned == http.StatusOK {
						check("GET /runs/"+sub.Job, scode, sbody)
					}
				case 2:
					code, body := call(http.MethodGet, p.proxy.URL+"/healthz")
					check("healthz", code, body)
					if !strings.HasPrefix(string(body), "ok ") {
						t.Errorf("healthz %q with a healthy shard", body)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flips.Wait()
	if t.Failed() {
		t.Logf("router stats at the end: %+v", p.router.Stats())
	}
}
