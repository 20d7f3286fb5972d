// Router tests: byte-identity of routed vs direct responses, routing
// stickiness, health-checked failover, request-ID propagation, job
// and platform fan-out, and the SSE proxy contract.
package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
)

// testPool is a set of in-process shards behind a Router.
type testPool struct {
	router *Router
	proxy  *httptest.Server // the router, listening
	shards []*httptest.Server
	urls   []string
	runs   []*runLog // per-shard record of executed (id, platform)
}

// runLog records which keys one shard actually executed.
type runLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *runLog) add(k string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys = append(l.keys, k)
}

func (l *runLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.keys...)
}

// stubRun produces a deterministic result for any (experiment,
// request) — same bytes on every shard, so re-running a key on a
// failover target yields the owner's exact response.
func stubRun(log *runLog) func(core.Experiment, core.Request) core.Result {
	return func(e core.Experiment, r core.Request) core.Result {
		if log != nil {
			log.add(Key(e.ID, r.Scale.String(), r.Platform))
		}
		rec := report.NewRecorder()
		tbl := report.NewTable("stub "+e.ID, "key", "value")
		tbl.AddRow("id", e.ID)
		tbl.AddRow("platform", r.Platform)
		tbl.Fprint(rec)
		return core.Result{Experiment: e, Req: r, Rec: rec, Elapsed: time.Millisecond}
	}
}

// newTestPool starts n stub shards and a router over them. mw, when
// non-nil, wraps each shard's handler (for observing proxied
// requests).
func newTestPool(t *testing.T, n int, cfg Config, mw func(i int, next http.Handler) http.Handler) *testPool {
	t.Helper()
	p := &testPool{}
	for i := 0; i < n; i++ {
		log := &runLog{}
		h := http.Handler(serve.New(serve.Config{RunFunc: stubRun(log)}))
		if mw != nil {
			h = mw(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		p.shards = append(p.shards, ts)
		p.urls = append(p.urls, ts.URL)
		p.runs = append(p.runs, log)
	}
	cfg.Shards = p.urls
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	p.router = rt
	p.proxy = httptest.NewServer(rt)
	t.Cleanup(p.proxy.Close)
	return p
}

// mirror builds an independent ring over the pool's shard URLs — ring
// hashing is stable, so it must agree with the router's own routing.
func (p *testPool) mirror(vnodes int) *Ring {
	r := NewRing(vnodes)
	for _, u := range p.urls {
		r.Add(u)
	}
	return r
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	return call(t, http.MethodGet, url, hdr)
}

// call makes one request and returns its response with the body read.
func call(t *testing.T, method, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestRoutedByteIdentity pins the transparency contract: for blocking
// GETs in every negotiated shape — and for the error envelopes — the
// routed response is byte-identical to the owning shard's direct
// one: status, Content-Type, ETag, body.
func TestRoutedByteIdentity(t *testing.T) {
	p := newTestPool(t, 2, Config{}, nil)
	paths := []string{
		"/experiments/T1?scale=quick",
		"/experiments/M3",
		"/experiments",
		"/platforms",
		"/experiments/nope",                            // 404 unknown_experiment
		"/experiments/T1?scale=mega",                   // 400 invalid_scale
		"/experiments/T1?scale=full",                   // 403 scale_limit
		"/experiments/T1?platform=nope",                // 400 unknown_platform
		"/experiments/T1?platform=custom-000000000000", // unknown custom → deferred to shard, same 400
	}
	accepts := []string{"", "application/json", "text/csv"}
	for _, path := range paths {
		for _, accept := range accepts {
			hdr := map[string]string{}
			if accept != "" {
				hdr["Accept"] = accept
			}
			routed, routedBody := get(t, p.proxy.URL+path, hdr)
			// The stub shards are deterministic, so shard 0's direct
			// answer is canonical whichever shard owns the key.
			direct, directBody := get(t, p.urls[0]+path, hdr)
			if routed.StatusCode != direct.StatusCode {
				t.Errorf("%s [%s]: routed %d, direct %d", path, accept, routed.StatusCode, direct.StatusCode)
				continue
			}
			if string(routedBody) != string(directBody) {
				t.Errorf("%s [%s]: routed body differs from direct:\nrouted: %q\ndirect: %q",
					path, accept, routedBody, directBody)
			}
			for _, h := range []string{"Content-Type", "ETag"} {
				if routed.Header.Get(h) != direct.Header.Get(h) {
					t.Errorf("%s [%s]: %s routed %q, direct %q",
						path, accept, h, routed.Header.Get(h), direct.Header.Get(h))
				}
			}
		}
	}
}

// TestRoutedHitHasContentLength: a representation the shard holds
// whole reaches the client through the router with its length
// declared, not chunked, at a size (over 2 KiB) that net/http would
// otherwise chunk; a 304 carries no length.
func TestRoutedHitHasContentLength(t *testing.T) {
	bigRun := func(e core.Experiment, r core.Request) core.Result {
		rec := report.NewRecorder()
		tbl := report.NewTable("big "+e.ID, "row", "value")
		for i := 0; i < 200; i++ {
			tbl.AddRow(i, "sixteen bytes of")
		}
		tbl.Fprint(rec)
		return core.Result{Experiment: e, Req: r, Rec: rec, Elapsed: time.Millisecond}
	}
	ts := httptest.NewServer(serve.New(serve.Config{RunFunc: bigRun}))
	t.Cleanup(ts.Close)
	rt, err := New(Config{Shards: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	for _, base := range []string{ts.URL, front.URL} {
		resp, body := get(t, base+"/experiments/T1", nil)
		if resp.StatusCode != http.StatusOK || len(body) <= 2<<10 {
			t.Fatalf("%s: %d with %d bytes, want a 200 over 2 KiB", base, resp.StatusCode, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %q for a %d-byte body",
				base, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		resp, _ = get(t, base+"/experiments/T1", map[string]string{"If-None-Match": resp.Header.Get("ETag")})
		if resp.StatusCode != http.StatusNotModified || resp.Header.Get("Content-Length") != "" {
			t.Errorf("%s: conditional GET %d with Content-Length %q, want a 304 without one",
				base, resp.StatusCode, resp.Header.Get("Content-Length"))
		}
	}
}

// TestRoutingIsSticky pins cache locality: every request for one key
// executes on exactly one shard — the ring owner — and a repeat GET
// is served from that shard's cache without a second run.
func TestRoutingIsSticky(t *testing.T) {
	p := newTestPool(t, 4, Config{}, nil)
	ring := p.mirror(0)
	ids := []string{"T1", "T2", "T3", "M3", "M4"}
	for _, id := range ids {
		for i := 0; i < 3; i++ {
			resp, body := get(t, p.proxy.URL+"/experiments/"+id, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", id, resp.StatusCode, body)
			}
		}
	}
	for _, id := range ids {
		key := Key(id, "quick", "")
		owner, _ := ring.Owner(key)
		for i, u := range p.urls {
			ran := 0
			for _, k := range p.runs[i].list() {
				if k == key {
					ran++
				}
			}
			switch {
			case u == owner && ran != 1:
				t.Errorf("%s: owner %s ran it %d times, want exactly 1 (cache miss then hits)", id, u, ran)
			case u != owner && ran != 0:
				t.Errorf("%s: non-owner %s ran it %d times, want 0", id, u, ran)
			}
		}
	}
}

// TestFailover pins the failover path: kill a key's owning shard, and
// the routed request is re-served — same bytes — by the ring
// successor, the failover counter moves, and the aggregated healthz
// reports the dead shard.
func TestFailover(t *testing.T) {
	p := newTestPool(t, 2, Config{}, nil)
	ring := p.mirror(0)
	key := Key("T1", "quick", "")
	owner, _ := ring.Owner(key)

	resp, before := get(t, p.proxy.URL+"/experiments/T1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-failover GET: %d", resp.StatusCode)
	}
	for i, u := range p.urls {
		if u == owner {
			p.shards[i].Close()
		}
	}
	resp, after := get(t, p.proxy.URL+"/experiments/T1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover GET: %d %s", resp.StatusCode, after)
	}
	if string(after) != string(before) {
		t.Errorf("failover changed the response bytes:\nbefore: %q\nafter:  %q", before, after)
	}
	st := p.router.Stats()
	if st.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", st.Failovers)
	}
	if st.ShardsUp != 1 || st.ShardsTotal != 2 {
		t.Errorf("shards up/total = %d/%d, want 1/2", st.ShardsUp, st.ShardsTotal)
	}
	hresp, hbody := get(t, p.proxy.URL+"/healthz", nil)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
	for _, want := range []string{"ok ", "shards_up=1", "shards_total=2"} {
		if !strings.Contains(string(hbody), want) {
			t.Errorf("healthz %q missing %q", hbody, want)
		}
	}
	mresp, mbody := get(t, p.proxy.URL+"/metrics", nil)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	if !strings.Contains(string(mbody), "charhpc_router_failovers_total") {
		t.Error("metrics exposition missing charhpc_router_failovers_total")
	}
}

// TestAllShardsDown pins the end of the failover chain: every
// candidate failing yields the router's 502 upstream_failed envelope
// in the service's error shape.
func TestAllShardsDown(t *testing.T) {
	p := newTestPool(t, 2, Config{}, nil)
	for _, s := range p.shards {
		s.Close()
	}
	resp, body := get(t, p.proxy.URL+"/experiments/T1", map[string]string{"Accept": "application/json"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502; body %s", resp.StatusCode, body)
	}
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
		Hint  string `json:"hint"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("502 body is not the JSON envelope: %v (%s)", err, body)
	}
	if env.Code != "upstream_failed" || env.Error == "" || env.Hint == "" {
		t.Errorf("envelope = %+v, want code upstream_failed with message and hint", env)
	}
}

// TestTruncatedShardBody: on the buffered path (POST /platforms) a
// shard that dies mid-body must draw the router's 502 envelope (and be
// marked down) — not the shard's own headers over an implicit 200 and
// no bytes. On the streaming paths (a chunked GET, an event stream, a
// submit) it must abort the client's connection, so the client reads
// an unexpected EOF.
func TestTruncatedShardBody(t *testing.T) {
	p := newTestPool(t, 1, Config{}, func(_ int, _ http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			buf.WriteString("HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"name\":\"custom-")
			buf.Flush()
			conn.Close()
		})
	})
	req, _ := http.NewRequest(http.MethodPost, p.proxy.URL+"/platforms", strings.NewReader(fanoutSpec))
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), `"code":"upstream_failed"`) {
		t.Errorf("truncated shard response relayed as %d %q, want 502 upstream_failed", resp.StatusCode, body)
	}
	if st := p.router.Stats(); st.ShardsUp != 0 {
		t.Errorf("shards_up = %d after a mid-body failure, want 0", st.ShardsUp)
	}

	// On the streaming paths the status line has gone out before the
	// body fails, so the client must see the body fail — never a
	// complete response under the shard's strong ETag.
	for _, c := range []struct{ name, method, path, ctype string }{
		{"chunked GET", http.MethodGet, "/experiments/T1", "text/plain; charset=utf-8"},
		{"event stream", http.MethodGet, "/runs/T1.quick..0aedb8e7aebb846b/events", "text/event-stream"},
		{"submit", http.MethodPost, "/runs?id=T1", "application/json"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newTestPool(t, 1, Config{}, func(_ int, _ http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					conn, buf, err := w.(http.Hijacker).Hijack()
					if err != nil {
						t.Error(err)
						return
					}
					buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: " + c.ctype +
						"\r\nETag: \"strong\"\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n")
					buf.Flush()
					conn.Close()
				})
			})
			req, _ := http.NewRequest(c.method, p.proxy.URL+c.path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // failed before the headers: not relayed as complete either
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("shard died mid-body; client got %d %q (ETag %s) with read error %v, want %v",
					resp.StatusCode, body, resp.Header.Get("ETag"), err, io.ErrUnexpectedEOF)
			}
		})
	}
}

// TestRequestIDPropagation pins the cross-hop contract: an inbound
// X-Request-ID is reused on the shard hop — never re-minted — so the
// same ID appears at the client, the router, and the shard; absent
// one, the router mints exactly one.
func TestRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	seen := map[int][]string{}
	p := newTestPool(t, 2, Config{}, func(i int, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[i] = append(seen[i], r.Header.Get("X-Request-ID"))
			mu.Unlock()
			next.ServeHTTP(w, r)
		})
	})

	resp, _ := get(t, p.proxy.URL+"/experiments/T1", map[string]string{"X-Request-ID": "req-pinned-1"})
	if got := resp.Header.Values("X-Request-Id"); len(got) != 1 || got[0] != "req-pinned-1" {
		t.Errorf("response X-Request-ID = %v, want exactly [req-pinned-1]", got)
	}
	mu.Lock()
	var shardSaw []string
	for _, ids := range seen {
		for _, id := range ids {
			if id != "" && !strings.HasPrefix(id, "probe") {
				shardSaw = append(shardSaw, id)
			}
		}
	}
	mu.Unlock()
	found := false
	for _, id := range shardSaw {
		if id == "req-pinned-1" {
			found = true
		}
	}
	if !found {
		t.Errorf("no shard saw the inbound request ID; shards saw %v", shardSaw)
	}

	// No inbound ID: the router mints one and the shard sees that same
	// minted value.
	mu.Lock()
	seen = map[int][]string{}
	mu.Unlock()
	resp, _ = get(t, p.proxy.URL+"/experiments/T2", nil)
	minted := resp.Header.Get("X-Request-Id")
	if minted == "" {
		t.Fatal("router did not mint a request ID")
	}
	mu.Lock()
	found = false
	for _, ids := range seen {
		for _, id := range ids {
			if id == minted {
				found = true
			}
		}
	}
	mu.Unlock()
	if !found {
		t.Errorf("shard did not receive the minted ID %q", minted)
	}
}

// TestJobsThroughRouter drives the async API end to end through the
// router: submit, status, SSE events to the terminal frame, result
// hand-off — and the SSE proxy must preserve the anti-buffering
// headers the shard sets.
func TestJobsThroughRouter(t *testing.T) {
	p := newTestPool(t, 2, Config{}, nil)
	sub := submit(t, p.proxy.URL, "id=T1&scale=quick")

	evResp, err := http.Get(p.proxy.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if evResp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", evResp.StatusCode)
	}
	if ct := evResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("events Content-Type = %q", ct)
	}
	if got := evResp.Header.Get("X-Accel-Buffering"); got != "no" {
		t.Errorf("routed SSE X-Accel-Buffering = %q, want no", got)
	}
	if got := evResp.Header.Get("Cache-Control"); got != "no-cache" {
		t.Errorf("routed SSE Cache-Control = %q, want no-cache", got)
	}
	terminal := terminalEvent(t, evResp.Body)
	if terminal["_type"] != "done" {
		t.Fatalf("job ended %q: %v", terminal["_type"], terminal)
	}

	// A resume that claims more events than the settled job has ends at
	// once through the router too, replaying nothing.
	req, err := http.NewRequest(http.MethodGet, p.proxy.URL+sub.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "100")
	rsResp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(rsResp.Body)
	rsResp.Body.Close()
	if err != nil {
		t.Fatalf("stream resumed past the terminal event did not end: %v", err)
	}
	if strings.Contains(string(rest), "id: ") {
		t.Errorf("stream resumed past the terminal event replayed %q", rest)
	}

	// Status via the router follows the job to its shard.
	sresp, sbody := get(t, p.proxy.URL+sub.StatusURL, nil)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", sresp.StatusCode, sbody)
	}
	// The terminal event's hand-off URL serves the cached result with
	// the ETag the event promised.
	rresp, _ := get(t, p.proxy.URL+terminal["url"], nil)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("hand-off: %d", rresp.StatusCode)
	}
	if got := rresp.Header.Get("ETag"); got != terminal["etag"] {
		t.Errorf("hand-off ETag %q, event promised %q", got, terminal["etag"])
	}
	// The merged job listing includes the job.
	lresp, lbody := get(t, p.proxy.URL+"/runs", nil)
	if lresp.StatusCode != http.StatusOK || !strings.Contains(string(lbody), sub.Job) {
		t.Errorf("merged GET /runs (%d) missing job %s: %s", lresp.StatusCode, sub.Job, lbody)
	}

	// Unknown jobs keep the shard's own 404 envelope.
	uresp, ubody := get(t, p.proxy.URL+"/runs/nope", map[string]string{"Accept": "application/json"})
	dresp, dbody := get(t, p.urls[0]+"/runs/nope", map[string]string{"Accept": "application/json"})
	if uresp.StatusCode != http.StatusNotFound || uresp.StatusCode != dresp.StatusCode {
		t.Errorf("unknown job: routed %d, direct %d", uresp.StatusCode, dresp.StatusCode)
	}
	if string(ubody) != string(dbody) {
		t.Errorf("unknown-job envelope differs: routed %q, direct %q", ubody, dbody)
	}
}

// submit POSTs /runs?query at base and returns the 202 body.
func submit(t *testing.T, base, query string) serve.SubmitResponse {
	t.Helper()
	resp, body := call(t, http.MethodPost, base+"/runs?"+query, nil)
	var sub serve.SubmitResponse
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &sub) != nil || sub.Job == "" {
		t.Fatalf("submit %s: %d %s", query, resp.StatusCode, body)
	}
	return sub
}

// terminalEvent reads an event stream to its terminal event and
// returns that event's data, its type under "_type".
func terminalEvent(t *testing.T, stream io.Reader) map[string]string {
	t.Helper()
	var terminal map[string]string
	sc := bufio.NewScanner(stream)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev struct {
				Type string            `json:"type"`
				Data map[string]string `json:"data"`
			}
			if json.Unmarshal([]byte(data), &ev) != nil {
				continue
			}
			if ev.Type == "done" || ev.Type == "failed" || ev.Type == "canceled" {
				terminal = ev.Data
				if terminal == nil {
					terminal = map[string]string{}
				}
				terminal["_type"] = ev.Type
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no terminal SSE event within 10s")
	}
	if terminal == nil {
		t.Fatal("event stream ended without a terminal event")
	}
	return terminal
}

// streamToDone reads a job's event stream at url to its terminal
// event, which must be done.
func streamToDone(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events %s: %d %s", url, resp.StatusCode, body)
	}
	if ev := terminalEvent(t, resp.Body); ev["_type"] != "done" {
		t.Fatalf("job ended %q: %v", ev["_type"], ev)
	}
}

// TestJobsAcrossRouters: a job's ID names its key, so a router that
// never saw the submit — a second replica, or one restarted — serves
// the job's status, event stream and cancel with no table and no
// failover.
func TestJobsAcrossRouters(t *testing.T) {
	p := newTestPool(t, 2, Config{}, nil)
	first := submit(t, p.proxy.URL, "id=T1")
	second := submit(t, p.proxy.URL, "id=M3")

	b, err := New(Config{Shards: p.urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	proxyB := httptest.NewServer(b)
	t.Cleanup(proxyB.Close)

	if resp, body := get(t, proxyB.URL+first.StatusURL, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status through router B: %d %s", resp.StatusCode, body)
	}
	streamToDone(t, proxyB.URL+first.EventsURL)
	resp, body := call(t, http.MethodDelete, proxyB.URL+second.StatusURL, nil)
	var st struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil || st.ID != second.Job {
		t.Fatalf("DELETE through router B: %d %s", resp.StatusCode, body)
	}
	if f := b.Stats().Failovers; f != 0 {
		t.Errorf("router B failed over %d times with every shard up", f)
	}
}

// TestJobRingWalk: a job's requests walk its key's shards in ring
// order. A job accepted by the successor while its owner backed off is
// still reached once the owner is back, through the owner's 404, which
// moves no failover and marks nothing down; a job whose shard died
// answers 502; and an ID nothing holds, or one minted before IDs named
// their key, answers the shard's own 404 bytes.
func TestJobRingWalk(t *testing.T) {
	t.Run("owner backed off at submit", func(t *testing.T) {
		var refuse [2]atomic.Bool // closes the shard's submits unanswered
		var asked [2]atomic.Int32 // job lookups each shard answered
		p := newTestPool(t, 2, Config{}, func(i int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if refuse[i].Load() && r.Method == http.MethodPost {
					if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
						conn.Close()
					}
					return
				}
				if strings.HasPrefix(r.URL.Path, "/runs/") {
					asked[i].Add(1)
				}
				next.ServeHTTP(w, r)
			})
		})
		owner, _ := p.mirror(0).Owner(Key("T1", "quick", ""))
		ownerIdx := 0
		if p.urls[1] == owner {
			ownerIdx = 1
		}

		// The owner fails the submit, which fails over to the successor
		// and leaves the owner backing off.
		refuse[ownerIdx].Store(true)
		sub := submit(t, p.proxy.URL, "id=T1")
		refuse[ownerIdx].Store(false)
		if st := p.router.Stats(); st.Failovers != 1 || st.ShardsUp != 1 {
			t.Fatalf("after the submit: %+v, want one failover and the owner down", st)
		}
		p.router.observe(owner, true) // the owner is back: first in ring order again

		streamToDone(t, p.proxy.URL+sub.EventsURL)
		for _, method := range []string{http.MethodGet, http.MethodDelete} {
			if resp, body := call(t, method, p.proxy.URL+sub.StatusURL, nil); resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: %d %s", method, sub.StatusURL, resp.StatusCode, body)
			}
		}
		if n := asked[ownerIdx].Load(); n != 3 {
			t.Errorf("owner answered %d job lookups, want 3 misses", n)
		}
		if st := p.router.Stats(); st.Failovers != 1 || st.ShardsUp != 2 {
			t.Errorf("after the walk: %+v, want the submit's one failover and both shards up", st)
		}
	})

	t.Run("accepting shard dead", func(t *testing.T) {
		p := newTestPool(t, 2, Config{}, nil)
		sub := submit(t, p.proxy.URL, "id=T1")
		owner, _ := p.mirror(0).Owner(Key("T1", "quick", ""))
		for i, u := range p.urls {
			if u == owner {
				p.shards[i].Close()
			}
		}
		// Twice: the owner first in ring order, then backing off and last.
		for _, path := range []string{sub.StatusURL, sub.EventsURL, sub.StatusURL} {
			resp, body := get(t, p.proxy.URL+path, map[string]string{"Accept": "application/json"})
			if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), `"code":"upstream_failed"`) {
				t.Errorf("GET %s with its shard dead: %d %s, want 502 upstream_failed", path, resp.StatusCode, body)
			}
		}
		resp, body := call(t, http.MethodDelete, p.proxy.URL+sub.StatusURL, nil)
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("DELETE with its shard dead: %d %s, want 502", resp.StatusCode, body)
		}
	})

	t.Run("unknown and pre-change IDs", func(t *testing.T) {
		p := newTestPool(t, 3, Config{}, nil)
		for _, job := range []string{"T1.quick..0000000000000000", "M3.full.gige-8n.0aedb8e7aebb846b", "0aedb8e7aebb846b"} {
			for _, c := range []struct{ method, path string }{
				{http.MethodGet, "/runs/" + job},
				{http.MethodGet, "/runs/" + job + "/events"},
				{http.MethodDelete, "/runs/" + job},
			} {
				hdr := map[string]string{"Accept": "application/json"}
				routed, rbody := call(t, c.method, p.proxy.URL+c.path, hdr)
				direct, dbody := call(t, c.method, p.urls[0]+c.path, hdr)
				if routed.StatusCode != http.StatusNotFound || direct.StatusCode != http.StatusNotFound {
					t.Errorf("%s %s: routed %d, direct %d, want 404", c.method, c.path, routed.StatusCode, direct.StatusCode)
				}
				if string(rbody) != string(dbody) || !strings.Contains(string(rbody), `"code":"unknown_job"`) {
					t.Errorf("%s %s: routed %q, direct %q, want the same unknown_job bytes", c.method, c.path, rbody, dbody)
				}
			}
		}
		if st := p.router.Stats(); st.Failovers != 0 || st.ShardsUp != 3 {
			t.Errorf("after the misses: %+v, want no failover and every shard up", st)
		}
	})
}

// TestSubmitKeysOnBodyBeforeQuery: the shard's FormValue lets an
// urlencoded body's parameters shadow the query's, and reads a
// multipart body too, so the router must key a submit the same way —
// or a job would be routed as one experiment and run as another. Each
// case runs an experiment owned by the other shard than the key a
// router that read only the query would route it on.
func TestSubmitKeysOnBodyBeforeQuery(t *testing.T) {
	multipartID := func(id string) (string, string) {
		var b strings.Builder
		mw := multipart.NewWriter(&b)
		mw.WriteField("id", id)
		mw.Close()
		return mw.FormDataContentType(), b.String()
	}
	for _, c := range []struct {
		name, query string // query: what a query-only router would key on
		body        func(id string) (ctype, body string)
	}{
		{"urlencoded body over a query id", "id=T1", func(id string) (string, string) {
			return "application/x-www-form-urlencoded", "id=" + id
		}},
		{"multipart body, no query", "", multipartID},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newTestPool(t, 2, Config{}, nil)
			ring := p.mirror(0)
			q, _ := url.ParseQuery(c.query)
			wrong, _ := ring.Owner(Key(q.Get("id"), "quick", ""))
			id := ""
			for _, e := range core.All() {
				if o, _ := ring.Owner(Key(e.ID, "quick", "")); o != wrong {
					id = e.ID
					break
				}
			}
			if id == "" {
				t.Skip("one shard owns every default key on this run's ports")
			}
			want := Key(id, "quick", "")
			owner, _ := ring.Owner(want)
			ctype, body := c.body(id)
			resp, err := http.Post(p.proxy.URL+"/runs?"+c.query, ctype, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			rbody, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %s", resp.StatusCode, rbody)
			}
			for i, u := range p.urls {
				if u == owner {
					eventually(t, id+" to run on its owner", func() bool { return len(p.runs[i].list()) > 0 })
				}
			}
			for i, u := range p.urls {
				got := strings.Join(p.runs[i].list(), " ")
				if u == owner && got != want {
					t.Errorf("owner %s ran %q, want %q", u, got, want)
				}
				if u != owner && got != "" {
					t.Errorf("non-owner %s ran %q, want nothing", u, got)
				}
			}
		})
	}
}

// failingBody is a request body whose read fails for a reason other
// than size.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
func (failingBody) Close() error             { return nil }

// TestPlatformBodyErrorsMatchShard: the router buffers POST /platforms
// bodies under the shards' own bound and classifies read failures the
// way a shard does — 413 body_too_large only for an oversized body,
// 400 bad_request for any other read error — with the same bytes.
func TestPlatformBodyErrorsMatchShard(t *testing.T) {
	p := newTestPool(t, 1, Config{}, nil)
	direct := serve.New(serve.Config{})
	for _, c := range []struct {
		name   string
		body   func() io.ReadCloser
		status int
	}{
		{"oversized", func() io.ReadCloser {
			return io.NopCloser(strings.NewReader(strings.Repeat("x", serve.DefaultMaxPlatformBody+1)))
		}, http.StatusRequestEntityTooLarge},
		{"read error", func() io.ReadCloser { return failingBody{} }, http.StatusBadRequest},
	} {
		var got [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{p.router, direct} {
			req := httptest.NewRequest(http.MethodPost, "/platforms", nil)
			req.Header.Set("Accept", "application/json")
			req.Body = c.body()
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], req)
		}
		if got[0].Code != c.status || got[1].Code != c.status {
			t.Errorf("%s: router %d, shard %d, want %d", c.name, got[0].Code, got[1].Code, c.status)
		}
		if got[0].Body.String() != got[1].Body.String() {
			t.Errorf("%s: router envelope %q differs from the shard's %q", c.name, got[0].Body, got[1].Body)
		}
	}
}

// TestRunBodyLimitMatchesShard: both tiers read at most
// serve.MaxRunBody of a POST /runs body, whatever its content type. A
// body of exactly the limit is accepted; past it, the router and a
// shard answer the same 413 body_too_large bytes, and a malformed form
// draws the shard's own 400 through the router.
func TestRunBodyLimitMatchesShard(t *testing.T) {
	p := newTestPool(t, 1, Config{}, nil)
	direct := serve.New(serve.Config{RunFunc: stubRun(nil)})
	const formCT = "application/x-www-form-urlencoded"
	form := func(n int) string {
		s := "id=T1&pad="
		return s + strings.Repeat("x", n-len(s))
	}
	multipartBody := func(pad int) (string, string) {
		var b strings.Builder
		mw := multipart.NewWriter(&b)
		mw.WriteField("id", "T1")
		mw.WriteField("pad", strings.Repeat("x", pad))
		mw.Close()
		return mw.FormDataContentType(), b.String()
	}
	mpCT, mpSmall := multipartBody(1024)
	_, mpBig := multipartBody(serve.MaxRunBody)
	for _, c := range []struct {
		name, query, ctype, body string
		status                   int
		code                     string
	}{
		{"urlencoded at the limit", "", formCT, form(serve.MaxRunBody), http.StatusAccepted, ""},
		{"urlencoded one byte over", "", formCT, form(serve.MaxRunBody + 1), http.StatusRequestEntityTooLarge, "body_too_large"},
		{"multipart under the limit", "", mpCT, mpSmall, http.StatusAccepted, ""},
		{"multipart over the limit", "", mpCT, mpBig, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"unparsed type one byte over", "id=T1", "application/octet-stream",
			strings.Repeat("x", serve.MaxRunBody+1), http.StatusRequestEntityTooLarge, "body_too_large"},
		{"malformed form", "", formCT, "id=%zz", http.StatusBadRequest, "bad_request"},
	} {
		var got [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{p.router, direct} {
			req := httptest.NewRequest(http.MethodPost, "/runs?"+c.query, strings.NewReader(c.body))
			req.Header.Set("Content-Type", c.ctype)
			req.Header.Set("Accept", "application/json")
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], req)
		}
		if got[0].Code != c.status || got[1].Code != c.status {
			t.Errorf("%s: router %d, shard %d, want %d", c.name, got[0].Code, got[1].Code, c.status)
			continue
		}
		if c.code == "" {
			continue
		}
		var env struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(got[1].Body.Bytes(), &env); err != nil || env.Code != c.code {
			t.Errorf("%s: shard envelope %q, want code %q", c.name, got[1].Body, c.code)
		}
		if got[0].Body.String() != got[1].Body.String() {
			t.Errorf("%s: router envelope %q differs from the shard's %q", c.name, got[0].Body, got[1].Body)
		}
	}
}

// TestPlatformFanout pins custom-platform registration through the
// router: the client gets the shard's own 201/200 bytes, and the spec
// reaches every shard (counted at each shard's front door) so any
// shard can serve the custom immediately.
func TestPlatformFanout(t *testing.T) {
	var mu sync.Mutex
	posts := map[int]int{}
	p := newTestPool(t, 3, Config{}, func(i int, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/platforms" {
				mu.Lock()
				posts[i]++
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	})

	resp, err := http.Post(p.proxy.URL+"/platforms", "application/json", strings.NewReader(fanoutSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var reg struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &reg); err != nil || !strings.HasPrefix(reg.Name, "custom-") {
		t.Fatalf("bad register body %s: %v", body, err)
	}
	mu.Lock()
	for i := range p.urls {
		if posts[i] == 0 {
			t.Errorf("shard %d never received the platform registration", i)
		}
	}
	mu.Unlock()

	// The custom now routes and runs like a preset, through the router.
	gresp, gbody := get(t, p.proxy.URL+"/experiments/T1?platform="+url.QueryEscape(reg.Name), nil)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET with registered custom: %d %s", gresp.StatusCode, gbody)
	}
}

// fanoutSpec is a minimal-but-complete custom machine (same shape the
// serve tests use), unique to this test via its label.
const fanoutSpec = `{
  "label": "shard-test quad",
  "topology": {"nodes": 4, "sockets_per_node": 2, "cores_per_socket": 4},
  "links": {
    "self":         {"latency_s": 1e-7, "overhead_s": 1e-7, "gap_s": 1e-8, "bandwidth_bytes_per_s": 12e9},
    "intra_socket": {"latency_s": 3e-7, "overhead_s": 2e-7, "gap_s": 2e-8, "bandwidth_bytes_per_s": 6e9},
    "intra_node":   {"latency_s": 6e-7, "overhead_s": 2e-7, "gap_s": 3e-8, "bandwidth_bytes_per_s": 4e9},
    "inter_node":   {"latency_s": 2e-5, "overhead_s": 1e-6, "gap_s": 1e-6, "bandwidth_bytes_per_s": 1.2e8}
  },
  "mem_bw_per_socket_bytes_per_s": 6.4e9,
  "mem_bw_per_core_bytes_per_s": 2.5e9,
  "flops_per_core": 9.6e9,
  "mem": {
    "name": "shard-test-mem",
    "levels": [
      {"name": "L1", "capacity_bytes": 32768, "latency_s": 1.2e-9},
      {"name": "L2", "capacity_bytes": 262144, "latency_s": 4.5e-9},
      {"name": "L3", "capacity_bytes": 8388608, "latency_s": 1.4e-8}
    ],
    "mem_latency_s": 7.5e-8,
    "tlb": {"entries": 512, "miss_cost_s": 2.2e-8},
    "page_bytes": 4096,
    "large_page_bytes": 2097152,
    "page_fault_cost_s": 1.5e-6,
    "numa": {"nodes": 2, "remote_latency_s": 1.25e-7, "remote_tlb_cost_s": 3e-8}
  }
}`

// TestRouterConfigValidation pins constructor errors and URL
// normalization.
func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no shards succeeded")
	}
	if _, err := New(Config{Shards: []string{"   ", ""}}); err == nil {
		t.Error("New with blank shards succeeded")
	}
	if _, err := New(Config{Shards: []string{"http://%zz"}}); err == nil {
		t.Error("New with an unparseable URL succeeded")
	}
	rt, err := New(Config{Shards: []string{"host1:8080/", "http://host1:8080", "host2:8080"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := rt.Stats().ShardsTotal; got != 2 {
		t.Errorf("normalized pool size %d, want 2 (scheme added, slash trimmed, dup removed)", got)
	}
}
