// The front end both tiers share (serve.Middleware), driven through
// serve.New and shard.New alike: whatever holds for one must hold for
// the other, so every assertion runs over both.
package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// lockedBuf is a log sink the test can read while handlers still
// write to it.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// lines returns the JSON log lines whose msg is the given one.
func (l *lockedBuf) lines(t *testing.T, msg string) []map[string]any {
	t.Helper()
	l.mu.Lock()
	text := l.b.String()
	l.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%q", err, line)
		}
		if rec["msg"] == msg {
			out = append(out, rec)
		}
	}
	return out
}

// frontTier is one tier under test: its URL, its registry and request
// counter name, and its access log.
type frontTier struct {
	name     string
	url      string
	reg      *obs.Registry
	requests string
	log      *lockedBuf
	logMsg   string
	upstream *lockedBuf // the tier behind this one, nil for the last
}

// newFrontTiers builds a charhpcd-shaped server alone and a router in
// front of one. release unblocks the tiers' runs of M1 (every other
// experiment returns at once), so a test can hold a job open.
func newFrontTiers(t *testing.T) (tiers []frontTier, release func()) {
	t.Helper()
	gate := make(chan struct{})
	stub := stubRun(nil)
	run := func(e core.Experiment, r core.Request) core.Result {
		if e.ID == "M1" {
			<-gate
		}
		return stub(e, r)
	}
	newShard := func() (*httptest.Server, *obs.Registry, *lockedBuf) {
		log := &lockedBuf{}
		srv := serve.New(serve.Config{RunFunc: run, AccessLog: obs.NewLogger(log, obs.FormatJSON)})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts, srv.Registry(), log
	}
	direct, directReg, directLog := newShard()
	shard, _, shardLog := newShard()

	log := &lockedBuf{}
	rt, err := New(Config{Shards: []string{shard.URL}, AccessLog: obs.NewLogger(log, obs.FormatJSON)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	routed := httptest.NewServer(rt)
	t.Cleanup(routed.Close)

	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return []frontTier{
		{name: "serve", url: direct.URL, reg: directReg, requests: "charhpc_requests_total",
			log: directLog, logMsg: "request"},
		{name: "router", url: routed.URL, reg: rt.reg, requests: "charhpc_router_requests_total",
			log: log, logMsg: "routed", upstream: shardLog},
	}, release
}

// eventually polls cond: the middleware records a request after the
// handler returns, which can be after the client has the whole body.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMiddlewareSharedByBothTiers: request-ID reuse and minting, the
// handler-label vocabulary and the access-log field set are the same
// whether a request enters at a daemon or at the router. Every route
// in serve.Routes is requested on both tiers under its own label, and
// a request that matches no route is "other".
func TestMiddlewareSharedByBothTiers(t *testing.T) {
	tiers, _ := newFrontTiers(t)
	type row struct{ method, path, handler string }
	var labels []row
	wildcards := strings.NewReplacer("{id}", "T1", "{name}", "bgp-64n", "{job}", "nope")
	for _, rt := range serve.Routes {
		method, path, _ := strings.Cut(rt.Pattern, " ")
		labels = append(labels, row{method, wildcards.Replace(path), rt.Label})
	}
	labels = append(labels,
		row{http.MethodGet, "/nope", "other"},            // 404
		row{http.MethodPost, "/experiments/T1", "other"}, // 405
		row{http.MethodGet, "/debug/pprof/", "other"},    // 404: pprof is off
	)
	var fieldSets []string
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			counted := map[*obs.Counter]int64{} // one series can carry several rows (the unmatched 404s)
			for _, tc := range labels {
				resp, _ := call(t, tc.method, tier.url+tc.path, nil)
				series := tier.reg.Counter(tier.requests, "",
					obs.L("handler", tc.handler), obs.L("code", strconv.Itoa(resp.StatusCode)))
				counted[series]++
				want := counted[series]
				eventually(t, tc.method+" "+tc.path+" counted as handler="+tc.handler,
					func() bool { return series.Value() == want })
			}

			// An inbound ID is echoed once and reaches the tier behind.
			resp, _ := get(t, tier.url+"/experiments/T2", map[string]string{"X-Request-ID": "rid-pinned"})
			if got := resp.Header.Values("X-Request-Id"); len(got) != 1 || got[0] != "rid-pinned" {
				t.Errorf("response X-Request-ID = %v, want exactly [rid-pinned]", got)
			}
			// None inbound: one is minted, echoed, logged and forwarded.
			resp, _ = get(t, tier.url+"/experiments/T3", nil)
			minted := resp.Header.Get("X-Request-Id")
			if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
				t.Errorf("minted request id %q, want 16 hex chars", minted)
			}
			for _, rid := range []string{"rid-pinned", minted} {
				logged := func(l *lockedBuf, msg string) func() bool {
					return func() bool {
						for _, rec := range l.lines(t, msg) {
							if rec["request_id"] == rid {
								return true
							}
						}
						return false
					}
				}
				eventually(t, tier.name+" access log line for "+rid, logged(tier.log, tier.logMsg))
				if tier.upstream != nil {
					eventually(t, "upstream access log line for "+rid, logged(tier.upstream, "request"))
				}
			}

			var fields []string
			for k := range tier.log.lines(t, tier.logMsg)[0] {
				fields = append(fields, k)
			}
			sort.Strings(fields)
			fieldSets = append(fieldSets, strings.Join(fields, " "))
		})
	}
	const want = "bytes elapsed_ms level method msg path remote request_id status time"
	for i, got := range fieldSets {
		if got != want {
			t.Errorf("%s access-log fields = %q, want %q", tiers[i].name, got, want)
		}
	}
}

// TestMiddlewarePassesFlush: SSE frames cross the wrapper while the
// job is still running — the status-capturing writer must not hide
// http.Flusher from the handler, on either tier.
func TestMiddlewarePassesFlush(t *testing.T) {
	tiers, release := newFrontTiers(t)
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			resp, err := http.Post(tier.url+"/runs?"+url.Values{"id": {"M1"}}.Encode(), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			var sub serve.SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&sub)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %v", resp.StatusCode, err)
			}
			stream, err := http.Get(tier.url + sub.EventsURL)
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Body.Close()
			// The run is gated shut, so a frame read now was flushed, not
			// released by the handler returning.
			frame := make(chan string, 1)
			go func() {
				line, _ := bufio.NewReader(stream.Body).ReadString('\n')
				frame <- line
			}()
			select {
			case line := <-frame:
				if !strings.HasPrefix(line, "id: 0") {
					t.Errorf("first SSE line = %q, want the pending event's id", line)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no SSE frame while the job was running: Flush did not reach the connection")
			}
		})
	}
	release()
}
