// Package serve exposes the experiment registry over HTTP — the first
// layer of the system that faces traffic rather than a terminal.
//
// Routes declares every endpoint; the README's endpoint table describes
// each. The platform query parameter of GET /experiments/{id} selects
// a preset from internal/cluster's registry; omitted, the experiment
// runs on its canonical platform set. Unknown or incompatible platform
// names are rejected with 400 before anything runs — the listing
// advertises the valid presets per experiment.
//
// Results are rendered in the content type negotiated via the Accept
// header — text/plain (the report table format), text/csv, or
// application/json (structured rows) — all three from a single cached
// execution per (id, scale, platform). Responses carry strong ETags
// and honor If-None-Match with 304; a cold key requested by N clients
// concurrently executes the experiment exactly once (single-flight).
//
// With a diskcache.Store configured, the in-memory cache is a
// write-through front for a disk-persistent one: cold keys load from
// disk before they run, fills persist atomically, and a restarted
// server serves previously cached results byte-identically (same
// ETags) without re-executing — see the README's persistence section.
package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/report"
)

// Server is the HTTP results service. It implements http.Handler.
type Server struct {
	cfg      Config
	listReps map[string]rep // registry listing per content type, fixed at init
	cache    *cache
	jobs     *jobs.Registry
	mux      *http.ServeMux
	front    Middleware // request IDs, request metrics, access log around mux

	m         *telemetry
	traces    *obs.TraceBuffer
	accessLog *obs.Logger
	start     time.Time
}

// Stats is a snapshot of the server's cache counters, also rendered
// on /healthz so operators (and the CI smoke test) can assert cache
// behavior across restarts. GET /metrics exposes the same counters as
// charhpc_cache_requests_total{tier=...}.
type Stats struct {
	Runs      int64 // experiment executions started
	MemHits   int64 // requests served from the in-memory cache
	DiskLoads int64 // entries loaded from the disk store
	DiskErrs  int64 // failed disk-store writes
}

// Stats returns the current counter snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Runs:      s.m.runTotal.Value(),
		MemHits:   s.m.memHits.Value(),
		DiskLoads: s.m.diskLoads.Value(),
		DiskErrs:  s.m.diskErrs.Value(),
	}
}

// New builds a Server over the process-wide experiment registry.
func New(cfg Config) *Server {
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		listReps:  buildListReps(),
		jobs:      jobs.New(0, cfg.JobsHistory),
		mux:       http.NewServeMux(),
		traces:    obs.NewTraceBuffer(traceCapacity),
		accessLog: cfg.AccessLog,
		start:     time.Now(),
	}
	s.m = s.newTelemetry(reg)
	s.cache = newCache(s.m.sfWait)
	s.front = Middleware{
		Next: s.mux, Registry: reg,
		RequestsName: "charhpc_requests_total", RequestsHelp: "HTTP requests served",
		LatencyName: "charhpc_request_seconds", LatencyHelp: "HTTP request latency",
		Log: cfg.AccessLog, LogMsg: "request",
	}
	s.loadPlatformDir()
	Mount(s.mux, map[string]http.HandlerFunc{
		"healthz":           s.handleHealthz,
		"metrics":           s.handleMetrics,
		"debug_traces":      s.handleTraces,
		"experiments_list":  s.handleList,
		"experiment_get":    s.handleGet,
		"platforms":         s.handlePlatformList,
		"platform_register": s.handlePlatformRegister,
		"platform_get":      s.handlePlatformGet,
		"runs":              s.handleJobList,
		"run_submit":        s.handleSubmitRun,
		"run_get":           s.handleJobGet,
		"run_cancel":        s.handleJobCancel,
		"run_events":        s.handleJobEvents,
	})
	return s
}

// ServeHTTP implements http.Handler: the routed handler behind the
// shared front end (request-ID propagation, request metrics, one
// access-log line).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.front.ServeHTTP(w, r) }

// handleHealthz reports liveness plus identity: the cache counters the
// smoke test asserts, the registry fingerprint (so a shard router can
// check it is fronting compatible binaries, not just live ones),
// process uptime, and per-tier cache entry counts.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ctText)
	st := s.Stats()
	diskEntries := 0
	var stalePurged int64
	if s.cfg.Store != nil {
		diskEntries = s.cfg.Store.Len()
		stalePurged = s.cfg.Store.StalePurged()
	}
	// jobs_done is the lifetime count, not the retained-history count
	// (which saturates at the history bound); jobs_active is live.
	jc := s.jobs.Counts()
	fmt.Fprintf(w, "ok runs=%d mem_hits=%d disk_loads=%d disk_errs=%d fingerprint=%s uptime_seconds=%d mem_entries=%d disk_entries=%d jobs_active=%d jobs_done=%d custom_platforms=%d stale_purged=%d\n",
		st.Runs, st.MemHits, st.DiskLoads, st.DiskErrs,
		core.Fingerprint(), int(time.Since(s.start).Seconds()),
		s.cache.len(), diskEntries,
		jc.Running, jc.Done,
		cluster.CustomCount(), stalePurged)
}

// listEntry is one row of the JSON registry listing. Platforms names
// the presets the experiment accepts via ?platform=; empty means the
// experiment has no platform axis (host-only).
type listEntry struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"`
	Title     string   `json:"title"`
	Platforms []string `json:"platforms,omitempty"`
}

// buildListReps renders the registry listing in all three content
// types once — the registry is immutable after init, so the bodies
// and their ETags never change for the life of the process.
func buildListReps() map[string]rep {
	all := core.All()
	entries := make([]listEntry, len(all))
	for i, e := range all {
		entries[i] = listEntry{ID: e.ID, Kind: e.Kind, Title: e.Title, Platforms: e.Platforms()}
	}
	table := func() *report.Table {
		t := report.NewTable("experiments", "id", "kind", "title", "platforms")
		for _, e := range entries {
			platforms := strings.Join(e.Platforms, ",")
			if platforms == "" {
				platforms = "-"
			}
			t.AddRow(e.ID, e.Kind, e.Title, platforms)
		}
		return t
	}
	reps := make(map[string]rep, len(offered))
	for _, ct := range offered {
		reps[ct] = tableRep(ct, entries, table)
	}
	return reps
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeNegotiated(w, r, func(ct string) (rep, bool) {
		// The platform axis is its own resource; the listing links rather
		// than inlines it, so these prebuilt bodies stay byte-stable as
		// customs register.
		w.Header().Set("Link", `</platforms>; rel="platforms"`)
		return s.listReps[ct], true
	})
}

// parseRunRequest validates one run request the way every entry point
// must, answering the error itself: experiment existence (404), then
// scale syntax (400), then the platform axis (400 — an invalid request
// is invalid whatever the server's policy), and only then the scale
// limit (403). The blocking GET and the async POST /runs both go
// through here, and the table test in platforms_test.go pins the
// precedence, so the same bad request can never draw different codes
// from different entry points. A fronting router forwards without
// checking: this is the one place a run request is ruled on.
func (s *Server) parseRunRequest(w http.ResponseWriter, r *http.Request, id, scaleV, platformV string) (core.Experiment, core.Request, bool) {
	e, ok := core.Get(id)
	if !ok {
		WriteError(w, r, http.StatusNotFound, codeUnknownExperiment,
			fmt.Sprintf("unknown experiment %q", id),
			"GET /experiments lists every registered experiment")
		return e, core.Request{}, false
	}
	scale, ok := core.ParseScale(scaleV)
	if !ok {
		WriteError(w, r, http.StatusBadRequest, codeInvalidScale,
			fmt.Sprintf("unknown scale %q (want quick or full)", scaleV), "")
		return e, core.Request{}, false
	}
	req := core.Request{Scale: scale, Platform: platformV}
	if err := e.CheckPlatform(req.Platform); err != nil {
		status, code, hint := platformError(err)
		WriteError(w, r, status, code, err.Error(), hint)
		return e, req, false
	}
	if limit := s.cfg.ScaleLimit; req.Scale > limit {
		WriteError(w, r, http.StatusForbidden, codeScaleLimit,
			fmt.Sprintf("scale %s disabled on this server (limit %s)", req.Scale, limit),
			"this server was started without full-scale runs enabled")
		return e, req, false
	}
	return e, req, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	e, req, ok := s.parseRunRequest(w, r, r.PathValue("id"), q.Get("scale"), q.Get("platform"))
	if !ok {
		return
	}
	writeNegotiated(w, r, func(ct string) (rep, bool) {
		rs, err := s.result(e, req, nil)
		if err != nil {
			WriteError(w, r, http.StatusInternalServerError, codeRunFailed,
				fmt.Sprintf("experiment %s failed: %v", e.ID, err), "")
			return rep{}, false
		}
		w.Header().Set("X-Experiment-Elapsed", rs.elapsed.String())
		return rs.reps[ct], true
	})
}

// result is the one call every entry point — blocking GET, async job —
// makes for a key's result set: the single-flight cache
// lookup, fill on a cold key, and the memory-hit count. j is the async
// job that follows the fill's progress, nil otherwise. A caller that
// found the key cached or in flight gets tier "mem"; waiters on a
// failed fill get its error, not a hit.
func (s *Server) result(e core.Experiment, req core.Request, j *jobs.Job) (resultSet, error) {
	rs, hit, err := s.cache.get(key{e.ID, req}, j, func(h core.RunHooks) (resultSet, error) { return s.fill(e, req, h) })
	if hit {
		rs.tier = "mem"
		if err == nil {
			s.m.memHits.Inc()
		}
	}
	return rs, err
}

// fill produces the result set for one cold (id, scale, platform):
// load from the disk store when a valid entry exists there,
// otherwise execute the experiment — observed through h, the cache
// entry's progress hooks — and write the rendering through to the store
// (best-effort: a failed write leaves the in-memory entry serving and
// bumps disk_errs). It is only ever called by result, under the
// cache's single flight, whose safeFill recovers a panic anywhere in
// it, so the memory layer is strictly a write-through front for the
// store. The set's tier reports how it was
// produced ("disk" or "run", the latter also on a failed run), for job
// terminal events and the cache-tier metrics.
func (s *Server) fill(e core.Experiment, req core.Request, h core.RunHooks) (resultSet, error) {
	st := s.cfg.Store
	if st != nil {
		if rs, ok := loadReps(st, s.m.storeGet, e.ID, req); ok {
			s.m.diskLoads.Inc()
			rs.tier = "disk"
			return rs, nil
		}
	}
	rs, err := renderResult(s.run(e, req, h))
	rs.tier = "run"
	if err == nil && st != nil && putReps(st, s.m.storePut, e.ID, req, rs) != nil {
		s.m.diskErrs.Inc()
	}
	return rs, err
}

// run drives one execution and stamps the request's own identity on
// the result, so cache keys and JSON envelopes never depend on what a
// wrapper echoed back. A configured RunFunc (test stubs, wrappers)
// takes precedence and ignores the hooks; the default path runs
// core.RunWithHooks so the fill's followers see live phase/section
// events.
func (s *Server) run(e core.Experiment, req core.Request, h core.RunHooks) core.Result {
	s.m.runTotal.Inc()
	var res core.Result
	if s.cfg.RunFunc != nil {
		res = s.cfg.RunFunc(e, req)
	} else {
		res = core.RunWithHooks(e, req, h)
	}
	res.Experiment, res.Req = e, req
	// A real run carries its timing tree on the Recorder (core.Run
	// attached it); retain it for GET /debug/traces. Stubbed results
	// have no span and are skipped.
	if res.Rec != nil {
		if sp := res.Rec.Span(); sp != nil {
			s.traces.Add(sp)
		}
	}
	return res
}
