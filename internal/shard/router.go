// The Router: an http.Handler that fronts a pool of charhpcd shards
// behind the single-daemon API. Requests for one cache key always
// land on the same shard (consistent hashing on (id, scale,
// platform)), so each shard's memory/disk cache stays hot for its
// slice; a request whose shard fails at the transport is re-routed to
// the next live ring successor and re-run there (the failover
// counter records it). A job's ID names its key (jobs.ParseID), so its
// status, cancel and event requests walk that key's shards in ring
// order to the one that holds it: the router keeps no per-job state.
// httputil.ReverseProxy relays each response byte-for-byte — body,
// status, ETags — so a client cannot tell the router from a single
// daemon; a shard that fails mid-stream aborts the client's connection
// rather than end its body early. Every request the router sends a
// shard, relayed or its own, goes through one hop (Router.do), which is
// where liveness is learned.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
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
	ring      *Ring
	live      *liveness
	transport *http.Transport
	front     serve.Middleware // the same front end the shards wrap their mux in
	log       *obs.Logger
	errLog    *log.Logger // the relay's, into log
	start     time.Time

	reg       *obs.Registry
	routedOK  map[string]*obs.Counter // charhpc_router_routed_total per shard, resolved in New
	routedErr map[string]*obs.Counter
	failovers *obs.Counter
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

	reg := obs.NewRegistry()
	rt := &Router{
		ring: NewRing(DefaultVNodes),
		live: &liveness{now: time.Now, win: make(map[string]*window, len(shards))},
		// No timeout: blocking GETs and SSE streams legitimately run
		// long. Enough idle connections per shard keep a hot pool's
		// connections alive, and they close after downBase, so a quiet
		// shard is not held open for longer than one backoff window.
		// Under load the transport can pool a connection it dialed but
		// never used; a shard's graceful shutdown closes those at once
		// (serve.RunDaemon), so they do not hold up its exit.
		transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     downBase,
		},
		log:    cfg.AccessLog,
		errLog: log.New(logSink{cfg.AccessLog}, "", 0),
		start:  time.Now(),
		reg:    reg,
		failovers: reg.Counter("charhpc_router_failovers_total",
			"requests re-routed to a ring successor after their shard failed"),
		routedOK:  make(map[string]*obs.Counter, len(shards)),
		routedErr: make(map[string]*obs.Counter, len(shards)),
	}
	const routedHelp = "hops to each shard (relayed requests, probes, fan-outs), by outcome (ok = shard answered, error = transport failure)"
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
	serve.Mount(mux, map[string]http.HandlerFunc{
		"healthz":           rt.handleHealthz,
		"metrics":           rt.handleMetrics,
		"debug_traces":      rt.handleAny,
		"experiments_list":  rt.handleAny,
		"experiment_get":    rt.handleExperiment,
		"platforms":         rt.handleAny,
		"platform_register": rt.handlePlatformRegister,
		"platform_get":      rt.handleAny,
		"runs":              rt.handleJobList,
		"run_submit":        rt.handleSubmitRun,
		"run_get":           rt.handleJob,
		"run_cancel":        rt.handleJob,
		"run_events":        rt.handleJob,
	})
	return rt, nil
}

// Close closes the idle shard connections.
func (rt *Router) Close() { rt.transport.CloseIdleConnections() }

// ServeHTTP implements http.Handler: the routed handler behind the
// front end the shards use too. An inbound X-Request-ID is reused on
// the shard hop — never re-minted — so one ID greps across both the
// router's and the shard's access logs.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.front.ServeHTTP(w, r) }

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

// ask GETs path from shard within probeTimeout on behalf of r and
// returns the status: 0 if the hop failed, which do has recorded.
func (rt *Router) ask(r *http.Request, shard, path string) int {
	ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
	defer cancel()
	resp, err := rt.send(ctx, r.Header.Get(serve.RequestIDHeader), http.MethodGet, path, nil, shard)
	if err != nil {
		return 0
	}
	return drain(resp)
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
	rt.proxy(w, r, &hop{targets: rt.candidates("")}, nil)
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
	rt.proxy(w, r, &hop{targets: rt.candidates(key)}, nil)
}

// handleSubmitRun routes the job to its key's shard. The shard names
// the job by that key (jobs.ParseID), so nothing about it is kept here.
func (rt *Router) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRunBody))
	if err != nil {
		serve.WriteBodyError(w, r, "run request", err)
		return
	}
	form, _ := serve.RunParams(r, body) // a form that does not parse is the shard's 400 to give
	key := routeKey(form.Get("id"), form.Get("scale"), form.Get("platform"))
	rt.proxy(w, r, &hop{targets: rt.candidates(key), body: body}, nil)
}

// handleJob routes a job subresource (status, cancel, events) by the
// key the job's ID names: the shard that accepted the submit is the
// first of that key's candidates that was up then, so the walk tries
// them in ring order and a 404 is a miss, not an answer (see hop). An
// ID that does not parse (unknown, or minted before IDs named their
// key) is any shard's own 404, byte-identical to the single-daemon one.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	spec, ok := jobs.ParseID(r.PathValue("job"))
	if !ok {
		rt.proxy(w, r, &hop{targets: rt.candidates("")}, nil)
		return
	}
	rt.proxy(w, r, &hop{targets: rt.candidates(Key(spec.Experiment, spec.Scale, spec.Platform)), walk: true}, nil)
}

// handleJobList merges every live shard's GET /runs into one JSON
// array (shard order; each shard's own newest-first order preserved).
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	all := []json.RawMessage{}
	for _, s := range rt.candidates("") {
		if rt.live.backingOff(s) {
			continue
		}
		resp, err := rt.send(r.Context(), r.Header.Get(serve.RequestIDHeader), http.MethodGet, "/runs", nil, s)
		if err != nil {
			continue
		}
		var list []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&list)
		resp.Body.Close()
		if err == nil {
			all = append(all, list...)
		}
	}
	serve.WriteJSON(w, http.StatusOK, all)
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
	rt.proxy(w, r, &hop{targets: rt.candidates(""), body: body}, func(target string, status int, respBody []byte) {
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
			resp, err := rt.send(r.Context(), r.Header.Get(serve.RequestIDHeader), http.MethodPost, "/platforms", body, s)
			if err == nil {
				if st := drain(resp); st != http.StatusCreated && st != http.StatusOK {
					err = fmt.Errorf("shard answered %s", resp.Status)
				}
			}
			if err != nil {
				rt.log.Error("platform fan-out failed", "shard", s, "error", err.Error())
			}
		}
	})
}

// proxy relays the request through httputil.ReverseProxy over h, and
// the response h settles on byte-for-byte. onResponse, when non-nil,
// sees the buffered response before anything is written (the platform
// fan-out starts from it); leave it nil on paths that stream. A shard
// that fails mid-body draws the 502 envelope on the buffered path and
// aborts the client connection on the streaming one, so a truncated
// body never reaches a client as a complete response.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, h *hop, onResponse func(target string, status int, body []byte)) {
	if len(h.targets) == 0 {
		serve.WriteError(w, r, http.StatusServiceUnavailable, codeNoLiveShard,
			"no shard is configured to serve this request", "GET /healthz reports per-shard liveness")
		return
	}
	h.rt = rt
	(&httputil.ReverseProxy{
		Rewrite:    func(*httputil.ProxyRequest) {}, // the hop picks each try's shard
		Transport:  h,
		BufferPool: &copyBufs,
		ErrorLog:   rt.errLog,
		ModifyResponse: func(resp *http.Response) error {
			// Ours is already set from the inbound request — same value,
			// since the shard echoes what the router sent.
			delete(resp.Header, serve.RequestIDHeader)
			if onResponse == nil {
				return nil
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				if r.Context().Err() == nil {
					rt.observe(h.target, false)
				}
				return fmt.Errorf("shard %s failed mid-response: %v", h.target, err)
			}
			onResponse(h.target, resp.StatusCode, b)
			resp.Body = io.NopCloser(bytes.NewReader(b))
			return nil
		},
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			if r.Context().Err() == nil { // a canceled client is owed nothing
				serve.WriteError(w, r, http.StatusBadGateway, codeUpstreamFailed, err.Error(),
					"GET /healthz reports per-shard liveness")
			}
		},
	}).ServeHTTP(w, r)
}

// hop carries one request to the first of its targets that answers:
// the relay's Transport, and the way the router's own requests travel.
// A transport failure fails over to the next target; a response of
// any status is final. body, when non-nil, is replayed on every try.
//
// A walk (a job's requests) looks for the one shard that holds the
// job: a 404 is a miss, drained, while a target is left to try. It
// moves no failover counter and marks no shard down. Once a target has
// failed at the transport, a 404 is never final — the job may be on
// the shard that failed — so the walk ends in that failure, a 502.
type hop struct {
	rt      *Router
	targets []string
	body    []byte
	walk    bool
	target  string // the shard that answered
}

// RoundTrip implements http.RoundTripper.
func (h *hop) RoundTrip(req *http.Request) (*http.Response, error) {
	var failed error
	for i, target := range h.targets {
		resp, err := h.rt.do(target, req, h.body)
		if err == nil {
			if h.walk && resp.StatusCode == http.StatusNotFound && (i+1 < len(h.targets) || failed != nil) {
				drain(resp)
				continue
			}
			h.target = target
			return resp, nil
		}
		// A canceled caller is not a shard failure: stop, don't fail
		// the pool over it.
		if req.Context().Err() != nil {
			return nil, err
		}
		if i+1 < len(h.targets) {
			h.rt.failovers.Inc()
			h.rt.log.Info("failover", "shard", target, "error", err.Error(), "next", h.targets[i+1])
		}
		failed = fmt.Errorf("%s: %w", target, err)
	}
	return nil, fmt.Errorf("no candidate shard answered (last failure: %w)", failed)
}

// send makes one request of the router's own — a probe, a listing, a
// fan-out — through a hop to shard, carrying rid (when set) as its
// request ID. The caller closes the response body.
func (rt *Router) send(ctx context.Context, rid, method, path string, body []byte, shard string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, path, nil)
	if err != nil {
		return nil, err
	}
	if rid != "" {
		req.Header.Set(serve.RequestIDHeader, rid)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json") // the one body it sends is a platform spec
	}
	return (&hop{rt: rt, targets: []string{shard}, body: body}).RoundTrip(req)
}

// drain discards what is left of a response body, closes it and
// returns the status.
func drain(resp *http.Response) int {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	return resp.StatusCode
}

// do makes one hop to shard — every request the router sends a shard
// goes through here — and records its outcome in routed_total and in
// liveness, the one place the router learns it: a response of any
// status means up, a transport failure means down, and a hop the
// caller canceled says nothing about the shard. The inbound headers,
// X-Request-ID included, travel as they are.
func (rt *Router) do(shard string, req *http.Request, body []byte) (*http.Response, error) {
	u, err := url.Parse(shard + req.URL.RequestURI())
	if err != nil {
		return nil, err
	}
	out := req.WithContext(req.Context())
	out.URL, out.Host = u, ""
	out.Body, out.ContentLength, out.TransferEncoding = nil, 0, nil
	if body != nil {
		out.Body, out.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	}
	resp, err := rt.transport.RoundTrip(out)
	if err != nil && errors.Is(req.Context().Err(), context.Canceled) {
		return nil, err
	}
	rt.observe(shard, err == nil)
	if err != nil {
		rt.routedErr[shard].Inc()
		return nil, err
	}
	rt.routedOK[shard].Inc()
	return resp, nil
}

// observe records one outcome for shard, logging a flip.
func (rt *Router) observe(shard string, ok bool) {
	if rt.live.record(shard, ok) {
		rt.log.Info("shard health change", "shard", shard, "up", ok)
	}
}

// copyBufs is the relay's BufferPool of 32 KiB copy buffers, pooled as
// array pointers so that neither Get nor Put allocates.
var copyBufs bufPool

type bufPool struct{ pool sync.Pool }

func (p *bufPool) Get() []byte {
	if b, ok := p.pool.Get().(*[32 << 10]byte); ok {
		return b[:]
	}
	return new([32 << 10]byte)[:]
}

func (p *bufPool) Put(b []byte) { p.pool.Put((*[32 << 10]byte)(b)) }

// logSink turns the relay's own error lines (a body copy that failed
// mid-stream) into error lines of the router's structured log.
type logSink struct{ log *obs.Logger }

func (s logSink) Write(p []byte) (int, error) {
	s.log.Error("relay", "error", strings.TrimSpace(string(p)))
	return len(p), nil
}
