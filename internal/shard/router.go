// The Router: an http.Handler that fronts a pool of charhpcd shards
// behind the single-daemon API. Requests for one cache key always
// land on the same shard (consistent hashing on (id, scale,
// platform)), so each shard's memory/disk cache stays hot for its
// slice; a request whose shard fails at the transport is re-routed to
// the next live ring successor and re-run there (the failover
// counter records it). Responses are proxied byte-for-byte — body,
// status, ETags — so a client cannot tell the router from a single
// daemon.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Router-side envelope codes, extending internal/serve's vocabulary
// for failures only a fronting tier can have. Documented in the serve
// README's code table alongside the shard codes.
const (
	codeNoLiveShard    = "no_live_shard"
	codeUpstreamFailed = "upstream_failed"
)

// maxJobRoutes bounds the router's job→shard routing table. Entries
// past it evict least recently used first; an evicted (or never-seen)
// job is re-located by probing the live shards, so the bound trades a
// little lookup latency for memory, not correctness.
const maxJobRoutes = 4096

// Config parameterizes a Router.
type Config struct {
	// Shards are the base URLs of the charhpcd workers, e.g.
	// "http://10.0.0.1:8080". A bare host:port gets http://. At least
	// one is required.
	Shards []string

	// AccessLog, when non-nil, receives one structured line per
	// routed request. A nil *obs.Logger is also safe.
	AccessLog *obs.Logger
}

// Router fronts the shard pool. It implements http.Handler.
type Router struct {
	ring   *Ring
	live   *liveness
	client *http.Client
	front  serve.Middleware // the same front end the shards wrap their mux in
	log    *obs.Logger
	start  time.Time

	// jobs is the bounded job→shard routing memory: which shard accepted
	// each submitted job, least recently used evicted first. A miss is
	// recoverable (findJob), so eviction is safe.
	jobsMu sync.Mutex
	jobs   *lru.Cache[string, string]

	reg           *obs.Registry
	routedOK      map[string]*obs.Counter // charhpc_router_routed_total per shard, resolved in New
	routedErr     map[string]*obs.Counter
	failovers     *obs.Counter
	warmPlanned   *obs.Gauge
	warmCompleted *obs.Gauge
	warmRunning   *obs.Gauge
}

// Stats is a snapshot of the router's own counters, for embedding
// binaries and tests; /metrics exposes the same numbers.
type Stats struct {
	ShardsUp    int
	ShardsTotal int
	Failovers   int64
}

// Stats returns the current snapshot.
func (rt *Router) Stats() Stats {
	return Stats{
		ShardsUp:    rt.live.upCount(),
		ShardsTotal: len(rt.ring.Shards()),
		Failovers:   rt.failovers.Value(),
	}
}

// New builds a Router over the given shard pool. It starts no
// goroutine: liveness is learned from the hops requests make.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: no shards configured")
	}
	var shards []string
	seen := map[string]bool{}
	for _, s := range cfg.Shards {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" {
			continue
		}
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		u, err := url.Parse(s)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("shard: bad shard URL %q", s)
		}
		if !seen[s] {
			seen[s] = true
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: no shards configured")
	}

	// No global timeout: blocking GETs and SSE streams legitimately run
	// long. Enough idle connections per shard keep a hot pool's
	// connections alive, and they close after downBase, so a quiet
	// shard is not held open for longer than one backoff window. Under
	// load the transport can pool a connection it dialed but never
	// used; a shard's graceful shutdown closes those at once
	// (serve.RunDaemon), so they do not hold up its exit.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     downBase,
	}}
	reg := obs.NewRegistry()

	rt := &Router{
		ring:   NewRing(DefaultVNodes),
		live:   &liveness{now: time.Now, win: make(map[string]*window, len(shards))},
		client: client,
		jobs:   lru.New[string, string](maxJobRoutes),
		log:    cfg.AccessLog,
		start:  time.Now(),
		reg:    reg,
		failovers: reg.Counter("charhpc_router_failovers_total",
			"requests re-routed to a ring successor after their shard failed"),
		warmPlanned: reg.Gauge("charhpc_router_warm_planned",
			"fan-out warm-up keys planned across the shard pool"),
		warmCompleted: reg.Gauge("charhpc_router_warm_completed",
			"fan-out warm-up keys resolved (warmed or failed)"),
		warmRunning: reg.Gauge("charhpc_router_warm_running",
			"1 while a fan-out warm-up is in flight"),
		routedOK:  make(map[string]*obs.Counter, len(shards)),
		routedErr: make(map[string]*obs.Counter, len(shards)),
	}
	const routedHelp = "requests sent to each shard, by outcome (ok = shard answered, error = transport failure)"
	for _, s := range shards {
		rt.ring.Add(s)
		rt.live.win[s] = &window{}
		rt.routedOK[s] = reg.Counter("charhpc_router_routed_total", routedHelp, obs.L("shard", s), obs.L("outcome", "ok"))
		rt.routedErr[s] = reg.Counter("charhpc_router_routed_total", routedHelp, obs.L("shard", s), obs.L("outcome", "error"))
		reg.GaugeFunc("charhpc_router_shard_up",
			"1 while the last hop to the labeled shard did not fail at the transport",
			func() float64 {
				if rt.live.isUp(s) {
					return 1
				}
				return 0
			}, obs.L("shard", s))
	}
	reg.GaugeFunc("charhpc_router_uptime_seconds", "seconds since the router was built",
		func() float64 { return time.Since(rt.start).Seconds() })

	mux := http.NewServeMux()
	rt.front = serve.Middleware{
		Next: mux, Registry: reg,
		RequestsName: "charhpc_router_requests_total", RequestsHelp: "requests routed, by handler and status code",
		LatencyName: "charhpc_router_proxy_seconds", LatencyHelp: "routed request latency, shard hop included",
		Log: cfg.AccessLog, LogMsg: "routed",
	}
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /experiments", rt.handleAny)
	mux.HandleFunc("GET /experiments/{id}", rt.handleExperiment)
	mux.HandleFunc("GET /platforms", rt.handleAny)
	mux.HandleFunc("GET /platforms/{name}", rt.handleAny)
	mux.HandleFunc("POST /platforms", rt.handlePlatformRegister)
	mux.HandleFunc("POST /runs", rt.handleSubmitRun)
	mux.HandleFunc("GET /runs", rt.handleJobList)
	mux.HandleFunc("GET /runs/{job}", rt.handleJob)
	mux.HandleFunc("DELETE /runs/{job}", rt.handleJob)
	mux.HandleFunc("GET /runs/{job}/events", rt.handleJob)
	mux.HandleFunc("GET /debug/traces", rt.handleAny)
	return rt, nil
}

// Close closes the proxy client's idle shard connections.
func (rt *Router) Close() { rt.client.CloseIdleConnections() }

// ServeHTTP implements http.Handler: the routed handler behind the
// front end the shards use too. An inbound X-Request-ID is reused on
// the shard hop — never re-minted — so one ID greps across both the
// router's and the shard's access logs.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.front.ServeHTTP(w, r) }

// routeJob remembers which shard owns a job.
func (rt *Router) routeJob(job, shard string) {
	rt.jobsMu.Lock()
	defer rt.jobsMu.Unlock()
	rt.jobs.Put(job, shard)
}

// jobRoute returns the shard remembered for a job.
func (rt *Router) jobRoute(job string) (string, bool) {
	rt.jobsMu.Lock()
	defer rt.jobsMu.Unlock()
	return rt.jobs.Get(job)
}

// handleHealthz probes every shard concurrently, then aggregates the
// pool's health on one line: first token "ok" while at least one shard
// is up, then counters (the smoke parses shards_up/shards_total), then
// one token per shard.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := rt.ring.Shards()
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.ask(r, s, "/healthz")
		}()
	}
	wg.Wait()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	up := rt.live.upCount()
	status := "ok"
	if up == 0 {
		status = "down"
	}
	fmt.Fprintf(w, "%s shards_up=%d shards_total=%d failovers=%d uptime_seconds=%d",
		status, up, len(shards), rt.failovers.Value(), int(time.Since(rt.start).Seconds()))
	for _, s := range shards {
		state := "down"
		if rt.live.isUp(s) {
			state = "up"
		}
		fmt.Fprintf(w, " shard[%s]=%s", s, state)
	}
	fmt.Fprintln(w)
}

// ask GETs path from shard within probeTimeout on behalf of r, drains
// the body and returns the status: 0 if the hop failed, which do has
// recorded.
func (rt *Router) ask(r *http.Request, shard, path string) int {
	ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shard+path, nil)
	if err != nil {
		return 0
	}
	req.Header.Set(serve.RequestIDHeader, r.Header.Get(serve.RequestIDHeader))
	resp, err := rt.do(shard, req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	return resp.StatusCode
}

// handleMetrics serves the router's own Prometheus exposition (the
// shards keep their own /metrics; scrape both).
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.WritePrometheus(w)
}

// candidates returns the shards to try for a key: every shard in ring
// order from the owner, those backing off after a failure last (ring
// order preserved within each group). They stay as last-resort
// candidates — a shard can come back inside its window, and a request
// that could succeed should never 503 on a guess.
func (rt *Router) candidates(key string) []string {
	order := rt.ring.Successors(key, len(rt.ring.Shards()))
	live := make([]string, 0, len(order))
	var down []string
	for _, s := range order {
		if !rt.live.backingOff(s) {
			live = append(live, s)
		} else {
			down = append(down, s)
		}
	}
	return append(live, down...)
}

// handleAny proxies a keyless read (listings, platform reads) to any
// live shard: the empty key's candidate order starts at a stable point.
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	rt.proxy(w, r, rt.candidates(""), nil, nil)
}

// routeKey builds the ring key from a run request's raw parameters and
// rules on nothing: the owning shard validates, so a rejection costs
// one hop and is the shard's own bytes. Scale is normalised through
// core.ParseScale so "" and "quick" hash alike; a scale that does not
// parse is kept verbatim (any shard will answer its 400).
func routeKey(id, scaleV, platform string) string {
	if scale, ok := core.ParseScale(scaleV); ok {
		scaleV = scale.String()
	}
	return Key(id, scaleV, platform)
}

// handleExperiment routes the blocking GET by its cache key.
func (rt *Router) handleExperiment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := routeKey(r.PathValue("id"), q.Get("scale"), q.Get("platform"))
	rt.proxy(w, r, rt.candidates(key), nil, nil)
}

// handleSubmitRun routes the job to its key's shard and records which
// shard accepted it, so the job's status/cancel/events requests follow
// it there.
func (rt *Router) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRunBody))
	if err != nil {
		serve.WriteBodyError(w, r, "run request", err)
		return
	}
	form := runParams(r, body)
	key := routeKey(form.Get("id"), form.Get("scale"), form.Get("platform"))
	rt.proxy(w, r, rt.candidates(key), body, func(target string, status int, respBody []byte) {
		if status != http.StatusAccepted {
			return
		}
		var sub struct {
			Job string `json:"job"`
		}
		if json.Unmarshal(respBody, &sub) == nil && sub.Job != "" {
			rt.routeJob(sub.Job, target)
		}
	})
}

// runParams reads the POST /runs parameters in the precedence the
// shard's r.FormValue gives them: an urlencoded form body's values
// first, then the query's — so the router keys the job by the same
// experiment the shard will run.
func runParams(r *http.Request, body []byte) url.Values {
	form := url.Values{}
	if strings.Contains(r.Header.Get("Content-Type"), "application/x-www-form-urlencoded") {
		form, _ = url.ParseQuery(string(body)) // like ParseForm, keep what parsed
	}
	for k, vs := range r.URL.Query() {
		form[k] = append(form[k], vs...)
	}
	return form
}

// handleJob routes a job subresource (status, cancel, events) to the
// shard that owns the job. Jobs are shard-local: a job whose shard
// died is gone, so there is no failover hop here — a dead owner
// answers 502 rather than a misleading 404 from a shard that never
// saw the job.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	job := r.PathValue("job")
	target, ok := rt.jobRoute(job)
	if !ok {
		target, ok = rt.findJob(r, job)
	}
	if !ok {
		// No live shard knows it: any shard's own 404 envelope is the
		// canonical answer, byte-identical to the single-daemon one.
		rt.proxy(w, r, rt.candidates(""), nil, nil)
		return
	}
	rt.proxy(w, r, []string{target}, nil, nil)
}

// findJob locates a job the routing table has no entry for (the
// table evicted it, or another router replica accepted the submit) by
// asking each live shard for its status.
func (rt *Router) findJob(r *http.Request, job string) (string, bool) {
	for _, s := range rt.candidates("") {
		if !rt.live.backingOff(s) && rt.ask(r, s, "/runs/"+url.PathEscape(job)) == http.StatusOK {
			rt.routeJob(job, s)
			return s, true
		}
	}
	return "", false
}

// handleJobList merges every live shard's GET /runs into one JSON
// array (shard order; each shard's own newest-first order preserved).
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	all := []json.RawMessage{}
	for _, s := range rt.candidates("") {
		if rt.live.backingOff(s) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, s+"/runs", nil)
		if err != nil {
			continue
		}
		req.Header.Set(serve.RequestIDHeader, r.Header.Get(serve.RequestIDHeader))
		resp, err := rt.do(s, req)
		if err != nil {
			continue
		}
		var list []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&list)
		resp.Body.Close()
		if err != nil {
			continue
		}
		all = append(all, list...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		serve.WriteError(w, r, http.StatusInternalServerError, serve.CodeInternal, err.Error(), "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handlePlatformRegister fans a custom-platform registration out to
// every shard, so any shard can serve any custom: the first live
// shard's response (201 on first sighting, 200 on an idempotent
// re-POST, 400 on an invalid spec — all byte-identical to the
// single-daemon responses) answers the client; on success the spec is
// then registered on the remaining shards. The router only bounds
// what it buffers, with the shards' own limit and error classes.
func (rt *Router) handlePlatformRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.DefaultMaxPlatformBody))
	if err != nil {
		serve.WriteBodyError(w, r, "platform spec", err)
		return
	}
	rt.proxy(w, r, rt.candidates(""), body, func(target string, status int, respBody []byte) {
		if status != http.StatusCreated && status != http.StatusOK {
			return
		}
		// Best-effort: a shard that misses the fan-out rejects requests
		// for the custom until it is re-POSTed, it does not serve wrong
		// bytes.
		for _, s := range rt.ring.Shards() {
			if s == target || rt.live.backingOff(s) {
				continue
			}
			if err := rt.fanOutPlatform(r, s, body); err != nil {
				rt.log.Error("platform fan-out failed", "shard", s, "error", err.Error())
			}
		}
	})
}

// fanOutPlatform re-POSTs one platform spec to one shard.
func (rt *Router) fanOutPlatform(r *http.Request, target string, body []byte) error {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target+"/platforms", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, r.Header.Get(serve.RequestIDHeader))
	resp, err := rt.do(target, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard answered %s", resp.Status)
	}
	return nil
}

// proxy forwards the request to the first candidate that answers,
// re-routing to the next on transport failure (the failover path; a
// response from a shard — any status — is final and copied through
// byte-for-byte). body, when non-nil, is the replayable request body.
// onResponse, when non-nil, buffers the response to observe it before
// writing (used to learn job→shard routes); leave it nil on paths
// that stream.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, targets []string, body []byte, onResponse func(target string, status int, body []byte)) {
	if len(targets) == 0 {
		serve.WriteError(w, r, http.StatusServiceUnavailable, codeNoLiveShard,
			"no shard is configured to serve this request", "GET /healthz reports per-shard liveness")
		return
	}
	var lastErr error
	for i, target := range targets {
		resp, err := rt.send(r, target, body)
		if err != nil {
			// A canceled client is not a shard failure: stop, don't
			// fail the pool over it.
			if r.Context().Err() != nil {
				return
			}
			lastErr = err
			rt.routedErr[target].Inc()
			if i+1 < len(targets) {
				rt.failovers.Inc()
				rt.log.Info("failover", "shard", target, "error", err.Error(), "next", targets[i+1])
			}
			continue
		}
		rt.routedOK[target].Inc()
		rt.copyResponse(w, r, resp, onResponse, target)
		return
	}
	rt.upstreamFailed(w, r, fmt.Sprintf("every candidate shard failed (last: %v)", lastErr))
}

// upstreamFailed answers the 502 envelope for a shard hop that failed.
func (rt *Router) upstreamFailed(w http.ResponseWriter, r *http.Request, msg string) {
	serve.WriteError(w, r, http.StatusBadGateway, codeUpstreamFailed, msg, "GET /healthz reports per-shard liveness")
}

// send builds and performs the outbound request for one target. The
// inbound headers — X-Request-ID included — are copied through, so
// the shard logs the same request ID the router did.
func (rt *Router) send(r *http.Request, target string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	out.Header = r.Header.Clone()
	return rt.do(target, out)
}

// do performs one hop to shard and records its outcome — the one place
// the router learns liveness: a response of any status means up, a
// transport failure means down, and a hop the caller canceled says
// nothing about the shard.
func (rt *Router) do(shard string, req *http.Request) (*http.Response, error) {
	resp, err := rt.client.Do(req)
	if err == nil || !errors.Is(req.Context().Err(), context.Canceled) {
		rt.observe(shard, err == nil)
	}
	return resp, err
}

// observe records one outcome for shard, logging a flip.
func (rt *Router) observe(shard string, ok bool) {
	if rt.live.record(shard, ok) {
		rt.log.Info("shard health change", "shard", shard, "up", ok)
	}
}

// copyBufs holds the proxy's 32 KiB copy buffers. Neither the front
// end's writer nor the transport's body offers ReadFrom/WriteTo, so
// io.Copy would allocate one per request. (A ReadFrom on the writer
// would not help: net's fallback for a non-TCP source allocates its
// own buffer and splits the response into two writes.) A buffer goes
// back to the pool only once its copy has returned, and a Write never
// keeps the slice it was given.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// copyResponse relays one shard response: headers, status, and the
// body through a pooled buffer. SSE bodies are flushed per chunk so
// progress frames reach the client as the shard emits them. On the
// buffered (onResponse) path the body is read before anything is
// written, so a shard that dies mid-body draws the 502 envelope — not
// its own headers over net/http's implicit 200 and no bytes.
func (rt *Router) copyResponse(w http.ResponseWriter, r *http.Request, resp *http.Response, onResponse func(string, int, []byte), target string) {
	defer resp.Body.Close()
	var body []byte
	if onResponse != nil {
		var err error
		if body, err = io.ReadAll(resp.Body); err != nil {
			if r.Context().Err() != nil {
				return
			}
			rt.observe(target, false)
			rt.upstreamFailed(w, r, fmt.Sprintf("shard %s failed mid-response: %v", target, err))
			return
		}
	}
	h := w.Header()
	for k, vv := range resp.Header {
		// Ours is already set from the inbound request — same value,
		// since the shard echoes what the router sent. The transport
		// has canonicalised k.
		if k == serve.RequestIDHeader {
			continue
		}
		h[k] = append(h[k], vv...)
	}
	if onResponse != nil {
		onResponse(target, resp.StatusCode, body)
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	w.WriteHeader(resp.StatusCode)
	buf := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(buf)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		flushCopy(w, resp.Body, *buf)
		return
	}
	io.CopyBuffer(w, resp.Body, *buf)
}

// flushCopy streams body to w through buf, flushing after every chunk
// — the proxied half of the SSE contract (the shard flushes per event,
// so chunks arrive event-aligned).
func flushCopy(w http.ResponseWriter, body io.Reader, buf []byte) {
	fl, _ := w.(http.Flusher)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
