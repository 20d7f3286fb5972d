// Package serve exposes the experiment registry over HTTP — the first
// layer of the system that faces traffic rather than a terminal.
//
// Endpoints:
//
//	GET /healthz                          liveness probe
//	GET /experiments                      registry listing (incl. valid platforms)
//	GET /experiments/{id}?scale=quick|full&platform=NAME
//	                                      one experiment's results
//
// The platform query parameter selects a preset from
// internal/cluster's registry; omitted, the experiment runs on its
// canonical platform set. Unknown or incompatible platform names are
// rejected with 400 before anything runs — the listing advertises the
// valid presets per experiment.
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
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/report"
)

// The three offered content types, in server preference order for
// wildcard Accept matches. Negotiation compares media types only;
// the charset parameter rides along on responses.
const (
	ctText = "text/plain; charset=utf-8"
	ctCSV  = "text/csv; charset=utf-8"
	ctJSON = "application/json"
)

var offered = []string{ctText, ctJSON, ctCSV}

// Config parameterizes a Server.
type Config struct {
	// ScaleLimit is the largest scale the server will run; requests
	// above it are rejected with 403. The zero value limits the
	// server to Quick; set Full to also allow paper-scale runs.
	ScaleLimit core.Scale

	// RunFunc executes one experiment request; nil means core.Run
	// (with live hooks on the async job path). Tests substitute it to
	// count or stub executions; a stubbed run produces no live
	// phase/section events, only the job's lifecycle ones.
	RunFunc func(core.Experiment, core.Request) core.Result

	// Jobs bounds how many async run jobs (POST /runs) execute
	// concurrently; 0 means jobs.DefaultWorkers. Queued jobs wait in
	// state "pending".
	Jobs int

	// JobsHistory bounds how many finished jobs GET /runs retains for
	// inspection; 0 means jobs.DefaultHistory.
	JobsHistory int

	// Store, when non-nil, persists filled cache entries to disk and
	// makes the in-memory cache a write-through front: a cold key
	// loads from the store before it runs, and every successful fill
	// is written back. The store must have been opened with
	// core.Fingerprint() so entries from other binaries or registry
	// shapes are rejected (see internal/diskcache).
	Store *diskcache.Store

	// Metrics, when non-nil, is the registry the server's instruments
	// live in — pass one to share a scrape with the embedding binary's
	// own metrics. Nil gets a private registry. GET /metrics always
	// serves the server's registry either way, unless DisableMetrics.
	Metrics *obs.Registry

	// DisableMetrics leaves GET /metrics unregistered (charhpcd
	// -metrics=false). Instruments still record; only the scrape
	// endpoint is withheld.
	DisableMetrics bool

	// AccessLog, when non-nil, receives one structured line per
	// request (request ID, method, path, status, bytes, latency).
	// Nil disables access logging; a nil *obs.Logger is also safe.
	AccessLog *obs.Logger

	// TraceCapacity bounds the ring of recent run traces served by
	// GET /debug/traces; 0 means DefaultTraceCapacity.
	TraceCapacity int

	// PlatformDir, when non-empty, is where custom platform specs
	// live: every *.json file in it is registered at startup, and
	// POST /platforms persists new registrations into it — so a
	// restarted daemon resolves the same custom-<hash> names and its
	// disk-cached custom results stay addressable.
	PlatformDir string

	// CustomCacheEntries bounds how many custom-platform results the
	// in-memory cache retains (its own LRU namespace — preset entries
	// are never evicted, however many customs churn). 0 means
	// DefaultCustomCacheEntries; negative means unbounded.
	CustomCacheEntries int

	// MaxPlatformBody bounds POST /platforms request bodies in bytes;
	// 0 means DefaultMaxPlatformBody.
	MaxPlatformBody int64
}

// DefaultCustomCacheEntries is the memory cache's custom-platform
// namespace quota when Config leaves it 0.
const DefaultCustomCacheEntries = 128

// DefaultTraceCapacity is the trace-ring size when Config leaves it 0.
const DefaultTraceCapacity = 32

// Job pool defaults, re-exported so binaries can use them as flag
// defaults without importing internal/jobs directly.
const (
	DefaultJobWorkers = jobs.DefaultWorkers
	DefaultJobHistory = jobs.DefaultHistory
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
	traceCap  int
	accessLog *obs.Logger
	start     time.Time

	// fp is core.Fingerprint() captured at construction. The registry
	// and fingerprint salts are fixed for the life of a process, and
	// recomputing means re-hashing every experiment's material — too
	// much work to redo on every /healthz scrape.
	fp string
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
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	traceCap := cfg.TraceCapacity
	if traceCap <= 0 {
		traceCap = DefaultTraceCapacity
	}
	maxCustom := cfg.CustomCacheEntries
	if maxCustom == 0 {
		maxCustom = DefaultCustomCacheEntries
	}
	s := &Server{
		cfg:       cfg,
		listReps:  buildListReps(),
		cache:     newCache(maxCustom),
		jobs:      jobs.New(cfg.Jobs, cfg.JobsHistory),
		mux:       http.NewServeMux(),
		m:         newTelemetry(reg, cfg.Store),
		traces:    obs.NewTraceBuffer(traceCap),
		traceCap:  traceCap,
		accessLog: cfg.AccessLog,
		start:     time.Now(),
		fp:        core.Fingerprint(),
	}
	s.front = Middleware{
		Next: s.mux, Registry: reg,
		RequestsName: "charhpc_requests_total", RequestsHelp: "HTTP requests served",
		LatencyName: "charhpc_request_seconds", LatencyHelp: "HTTP request latency",
		Log: cfg.AccessLog, LogMsg: "request",
	}
	s.cache.waits = s.m.sfWait
	s.jobs.SetMetrics(jobs.Metrics{
		Submitted: s.m.jobsSubmitted,
		Done:      s.m.jobsDone,
		Failed:    s.m.jobsFailed,
		Canceled:  s.m.jobsCanceled,
		Events:    s.m.jobEvents,
	})
	s.registerScrapeGauges()
	s.loadPlatformDir()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /experiments", s.handleList)
	s.mux.HandleFunc("GET /experiments/{id}", s.handleGet)
	s.mux.HandleFunc("GET /platforms", s.handlePlatformList)
	s.mux.HandleFunc("POST /platforms", s.handlePlatformRegister)
	s.mux.HandleFunc("GET /platforms/{name}", s.handlePlatformGet)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("POST /runs", s.handleSubmitRun)
	s.mux.HandleFunc("GET /runs", s.handleJobList)
	s.mux.HandleFunc("GET /runs/{job}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /runs/{job}", s.handleJobCancel)
	s.mux.HandleFunc("GET /runs/{job}/events", s.handleJobEvents)
	if !cfg.DisableMetrics {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
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
	// jobs_done is the lifetime counter, not the retained-history count
	// (which saturates at the history bound); active and queued are live.
	jc := s.jobs.Counts()
	fmt.Fprintf(w, "ok runs=%d mem_hits=%d disk_loads=%d disk_errs=%d fingerprint=%s uptime_seconds=%d mem_entries=%d disk_entries=%d jobs_active=%d jobs_queued=%d jobs_done=%d custom_platforms=%d stale_purged=%d\n",
		st.Runs, st.MemHits, st.DiskLoads, st.DiskErrs,
		s.fp, int(time.Since(s.start).Seconds()),
		s.cache.len(), diskEntries,
		jc[jobs.Running], jc[jobs.Pending], s.m.jobsDone.Value(),
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
	jsonb, _ := json.Marshal(entries)
	jsonb = append(jsonb, '\n')

	t := report.NewTable("experiments", "id", "kind", "title", "platforms")
	for _, e := range all {
		platforms := strings.Join(e.Platforms(), ",")
		if platforms == "" {
			platforms = "-"
		}
		t.AddRow(e.ID, e.Kind, e.Title, platforms)
	}
	rec := report.NewRecorder()
	t.Fprint(rec)
	var csvb strings.Builder
	rec.Document().CSV(&csvb)

	return map[string]rep{
		ctText: {body: rec.Bytes(), etag: etagOf(rec.Bytes())},
		ctCSV:  {body: []byte(csvb.String()), etag: etagOf([]byte(csvb.String()))},
		ctJSON: {body: jsonb, etag: etagOf(jsonb)},
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ct := negotiate(r.Header.Get("Accept"))
	if ct == "" {
		writeError(w, r, http.StatusNotAcceptable, codeNotAcceptable,
			"acceptable types: text/plain, text/csv, application/json", "")
		return
	}
	rp := s.listReps[ct]
	w.Header().Set("Vary", "Accept")
	w.Header().Set("ETag", rp.etag)
	// The platform axis is its own resource; the listing links rather
	// than inlines it, so these prebuilt bodies stay byte-stable as
	// customs register.
	w.Header().Set("Link", `</platforms>; rel="platforms"`)
	if etagMatch(r.Header.Get("If-None-Match"), rp.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Write(rp.body)
}

// CheckRunRequest validates one run request the way every entry point
// must: experiment existence (404), then scale syntax (400), then the
// platform axis (400 — an invalid request is invalid whatever the
// server's policy), and only then the given scale limit (403). The
// blocking GET and the async POST /runs both go through here, and the
// table test in serve_test.go pins the precedence, so the same bad
// request can never draw different codes from different entry points.
// It is exported for the shard router, which validates against the
// same rules before any shard round trip and writes the returned
// APIError through WriteAPIError — byte-identical to a shard's own
// rejection of the same request.
func CheckRunRequest(id, scaleV, platformV string, limit core.Scale) (core.Experiment, core.Request, *APIError) {
	e, ok := core.Get(id)
	if !ok {
		return e, core.Request{}, &APIError{
			Status: http.StatusNotFound, Code: codeUnknownExperiment,
			Message: fmt.Sprintf("unknown experiment %q", id),
			Hint:    "GET /experiments lists every registered experiment"}
	}
	scale, ok := core.ParseScale(scaleV)
	if !ok {
		return e, core.Request{}, &APIError{
			Status: http.StatusBadRequest, Code: codeInvalidScale,
			Message: fmt.Sprintf("unknown scale %q (want quick or full)", scaleV)}
	}
	req := core.Request{Scale: scale, Platform: platformV}
	if err := e.CheckPlatform(req.Platform); err != nil {
		status, code, hint := platformError(err)
		return e, req, &APIError{Status: status, Code: code, Message: err.Error(), Hint: hint}
	}
	if req.Scale > limit {
		return e, req, &APIError{
			Status: http.StatusForbidden, Code: codeScaleLimit,
			Message: fmt.Sprintf("scale %s disabled on this server (limit %s)", req.Scale, limit),
			Hint:    "this server was started without full-scale runs enabled"}
	}
	return e, req, nil
}

// parseRunRequest is CheckRunRequest bound to this server's scale
// limit, answering the error itself.
func (s *Server) parseRunRequest(w http.ResponseWriter, r *http.Request, id, scaleV, platformV string) (core.Experiment, core.Request, bool) {
	e, req, apiErr := CheckRunRequest(id, scaleV, platformV, s.cfg.ScaleLimit)
	if apiErr != nil {
		WriteAPIError(w, r, apiErr)
		return e, req, false
	}
	return e, req, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	e, req, ok := s.parseRunRequest(w, r, id, q.Get("scale"), q.Get("platform"))
	if !ok {
		return
	}
	ct := negotiate(r.Header.Get("Accept"))
	if ct == "" {
		writeError(w, r, http.StatusNotAcceptable, codeNotAcceptable,
			"acceptable types: text/plain, text/csv, application/json", "")
		return
	}

	ent, hit, err := s.cache.get(key{id, req}, func() (map[string]rep, time.Duration, error) {
		reps, elapsed, _, err := s.fill(e, req, core.RunHooks{})
		return reps, elapsed, err
	})
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, codeRunFailed,
			fmt.Sprintf("experiment %s failed: %v", id, err), "")
		return
	}
	// Waiters on a failed fill got a 500, not a cached result — only
	// a successful wait counts as a hit.
	if hit {
		s.m.memHits.Inc()
	}

	rp := ent.reps[ct]
	w.Header().Set("Vary", "Accept")
	w.Header().Set("ETag", rp.etag)
	w.Header().Set("X-Experiment-Elapsed", ent.elapsed.String())
	if etagMatch(r.Header.Get("If-None-Match"), rp.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Write(rp.body)
}

// resultJSON is the JSON envelope for one experiment's results.
// Platform is present only for explicit-platform requests, so default
// envelopes are byte-identical to the pre-platform-axis format.
type resultJSON struct {
	ID             string           `json:"id"`
	Kind           string           `json:"kind"`
	Title          string           `json:"title"`
	Scale          string           `json:"scale"`
	Platform       string           `json:"platform,omitempty"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Sections       []report.Section `json:"sections"`
}

// renderResult turns one captured execution into all three negotiable
// representations, each with the strong ETag of its exact bytes.
func renderResult(res core.Result) (map[string]rep, time.Duration, error) {
	if res.Err != nil {
		return nil, 0, res.Err
	}
	if res.Rec == nil {
		return nil, 0, fmt.Errorf("run produced no output recorder")
	}
	doc := res.Rec.Document()

	text := append([]byte(nil), res.Rec.Bytes()...)

	var csvb strings.Builder
	if err := doc.CSV(&csvb); err != nil {
		return nil, 0, err
	}

	sections := doc.Sections
	if sections == nil {
		sections = []report.Section{}
	}
	jsonb, err := json.Marshal(resultJSON{
		ID:             res.Experiment.ID,
		Kind:           res.Experiment.Kind,
		Title:          res.Experiment.Title,
		Scale:          res.Req.Scale.String(),
		Platform:       res.Req.Platform,
		ElapsedSeconds: res.Elapsed.Seconds(),
		Sections:       sections,
	})
	if err != nil {
		return nil, 0, err
	}
	jsonb = append(jsonb, '\n')

	reps := map[string]rep{
		ctText: {body: text, etag: etagOf(text)},
		ctCSV:  {body: []byte(csvb.String()), etag: etagOf([]byte(csvb.String()))},
		ctJSON: {body: jsonb, etag: etagOf(jsonb)},
	}
	return reps, res.Elapsed, nil
}

// fill produces the representations for one cold (id, scale,
// platform): load from the disk store when a valid entry generation
// exists there, otherwise execute the experiment — observed through h
// on the async job path — and write the rendering through to the
// store. Every cache.get — blocking GET, async job, warm-up — fills
// through here and nowhere else, so the memory layer is strictly a
// write-through front for the store. tier reports how the result was
// produced ("disk" or "run"), for job terminal events and the
// cache-tier metrics.
func (s *Server) fill(e core.Experiment, req core.Request, h core.RunHooks) (map[string]rep, time.Duration, string, error) {
	if reps, elapsed, ok := s.loadStore(e.ID, req); ok {
		s.m.diskLoads.Inc()
		return reps, elapsed, "disk", nil
	}
	reps, elapsed, err := renderResult(s.safeRun(e, req, h))
	if err == nil {
		s.saveStore(e.ID, req, reps, elapsed)
	}
	return reps, elapsed, "run", err
}

// safeRun drives one execution with the safety net both paths need: a
// panicking run becomes an error Result instead of killing a worker
// goroutine (and with it the process, on the Warm path), and the
// job's own identity is stamped on the result so cache keys and JSON
// envelopes never depend on what a wrapper echoed back. A configured
// RunFunc (test stubs, wrappers) takes precedence and ignores the
// hooks; the default path runs core.RunWithHooks so async jobs see
// live phase/section events.
func (s *Server) safeRun(e core.Experiment, req core.Request, h core.RunHooks) (res core.Result) {
	s.m.runTotal.Inc()
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{Err: fmt.Errorf("experiment run panicked: %v", r)}
		}
		res.Experiment, res.Req = e, req
		// A real run carries its timing tree on the Recorder (core.Run
		// attached it); retain it for GET /debug/traces. Disk loads and
		// rebuilt cache entries have no span and are skipped.
		if res.Rec != nil {
			if sp := res.Rec.Span(); sp != nil {
				s.traces.Add(sp)
			}
		}
	}()
	if s.cfg.RunFunc != nil {
		return s.cfg.RunFunc(e, req)
	}
	return core.RunWithHooks(e, req, h)
}

// storeKey maps one in-memory cache slot + offered content type to
// the disk store's key space. Keys carry the bare media type — the
// charset parameter is a response detail, not part of the identity.
func storeKey(id string, req core.Request, ct string) diskcache.Key {
	return diskcache.Key{ID: id, Scale: req.Scale.String(), Platform: req.Platform, ContentType: mediaType(ct)}
}

// mediaType strips any parameters (";charset=...") from a content type.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// runIDOf stamps one execution's generation: a hash over every
// representation's ETag. Entries written by one fill share it, so a
// set mixed across two concurrent executions (last-writer-wins per
// file, and nondeterministic experiments render different bytes per
// run) is detectable on load even though each file validates alone.
func runIDOf(reps map[string]rep) string {
	h := sha256.New()
	for _, ct := range offered {
		fmt.Fprintln(h, reps[ct].etag)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// loadStore fetches all offered representations of (id, scale,
// platform) from the disk store. It is all-or-nothing: negotiation
// needs every content type from the same execution, so a partial set —
// or one whose entries carry different run stamps because two writers
// raced — reads as a miss and the caller re-runs.
func (s *Server) loadStore(id string, req core.Request) (map[string]rep, time.Duration, bool) {
	if s.cfg.Store == nil {
		return nil, 0, false
	}
	reps := make(map[string]rep, len(offered))
	var elapsed time.Duration
	var runID string
	for i, ct := range offered {
		ent, ok := s.cfg.Store.Get(storeKey(id, req, ct))
		if !ok {
			return nil, 0, false
		}
		if i == 0 {
			runID = ent.RunID
		} else if ent.RunID != runID {
			return nil, 0, false
		}
		reps[ct] = rep{body: ent.Body, etag: ent.ETag}
		elapsed = ent.Elapsed
	}
	return reps, elapsed, true
}

// putReps persists one fill's representations — runID-stamped so a
// reader can reject a set mixed across racing writers. Both persist
// paths (the daemon's write-through and the CLI's StoreResult) go
// through here, so the entry layout can never diverge between them.
// The first failed write is returned; the rest are still attempted.
func putReps(st *diskcache.Store, id string, req core.Request, reps map[string]rep, elapsed time.Duration) error {
	runID := runIDOf(reps)
	var firstErr error
	for _, ct := range offered {
		rp := reps[ct]
		err := st.Put(storeKey(id, req, ct),
			diskcache.Entry{ETag: rp.etag, RunID: runID, Elapsed: elapsed, Body: rp.body})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// saveStore writes a filled entry's representations through to the
// disk store. Persistence is best-effort: a failed write leaves the
// in-memory entry serving and bumps the disk_errs counter.
func (s *Server) saveStore(id string, req core.Request, reps map[string]rep, elapsed time.Duration) {
	if s.cfg.Store == nil {
		return
	}
	if err := putReps(s.cfg.Store, id, req, reps, elapsed); err != nil {
		s.m.diskErrs.Inc()
	}
}

// StoreResult renders one captured execution into all negotiable
// representations and persists them under the store layout the daemon
// reads — how charhpc -cache-dir shares a store with charhpcd. A
// failed result is not persisted.
func StoreResult(st *diskcache.Store, res core.Result) error {
	reps, elapsed, err := renderResult(res)
	if err != nil {
		return err
	}
	return putReps(st, res.Experiment.ID, res.Req, reps, elapsed)
}

// LoadResult reconstructs a cached execution of e for request req from
// the disk store: the text representation replays the byte stream and
// the JSON envelope's sections rebuild the structured document, so
// the returned Result behaves like a live run (report.Rebuild is the
// round-trip's other half). Elapsed is the original run's wall time.
// Missing or invalid entries return ok=false.
func LoadResult(st *diskcache.Store, e core.Experiment, req core.Request) (core.Result, bool) {
	text, ok := st.Get(storeKey(e.ID, req, ctText))
	if !ok {
		return core.Result{}, false
	}
	jent, ok := st.Get(storeKey(e.ID, req, ctJSON))
	if !ok || jent.RunID != text.RunID {
		return core.Result{}, false
	}
	var env resultJSON
	if err := json.Unmarshal(jent.Body, &env); err != nil {
		return core.Result{}, false
	}
	return core.Result{
		Experiment: e,
		Req:        req,
		Rec:        report.Rebuild(text.Body, env.Sections),
		Elapsed:    text.Elapsed,
	}, true
}

// etagOf returns the strong ETag of a representation: the quoted
// SHA-256 of its exact bytes.
func etagOf(b []byte) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%x", sha256.Sum256(b)))
}

// etagMatch reports whether an If-None-Match header value matches the
// given ETag. Per RFC 9110 §13.1.2 If-None-Match uses weak
// comparison: a W/ prefix on the presented validator is ignored.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
		if tok == "*" || tok == etag {
			return true
		}
	}
	return false
}

// negotiate picks the response content type from an Accept header,
// honoring q-values and wildcards. An empty header means text/plain;
// "" is returned when nothing offered is acceptable (406).
func negotiate(accept string) string {
	if strings.TrimSpace(accept) == "" {
		return ctText
	}
	// Media types compare case-insensitively (RFC 9110 §12.5.1); the
	// offered types are already lowercase.
	accept = strings.ToLower(accept)
	bestQ := -1.0
	bestSpec := -1
	best := ""
	for _, offer := range offered {
		media := offer
		if i := strings.IndexByte(media, ';'); i >= 0 {
			media = strings.TrimSpace(media[:i])
		}
		q, spec := acceptQ(accept, media)
		// Higher q wins; at equal q a more specific match wins; at
		// equal specificity the server preference order (offered)
		// stands.
		if q > 0 && (q > bestQ || (q == bestQ && spec > bestSpec)) {
			bestQ, bestSpec, best = q, spec, offer
		}
	}
	return best
}

// acceptQ returns the quality value the Accept header assigns to a
// media type, and the specificity of the clause that matched
// (2 exact, 1 type/*, 0 */*). q is 0 when no clause matches.
func acceptQ(accept, media string) (q float64, spec int) {
	typ := media[:strings.IndexByte(media, '/')]
	spec = -1
	for _, clause := range strings.Split(accept, ",") {
		parts := strings.Split(clause, ";")
		pat := strings.TrimSpace(parts[0])
		cq := 1.0
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if v, ok := strings.CutPrefix(p, "q="); ok {
				if f, err := parseQ(v); err == nil {
					cq = f
				}
			}
		}
		var cs int
		switch pat {
		case media:
			cs = 2
		case typ + "/*":
			cs = 1
		case "*/*":
			cs = 0
		default:
			continue
		}
		// The most specific matching clause determines q (RFC 9110).
		if cs > spec {
			spec, q = cs, cq
		}
	}
	if spec < 0 {
		return 0, -1
	}
	return q, spec
}

// parseQ parses a qvalue (0 to 1, up to three decimals).
func parseQ(s string) (float64, error) {
	var f float64
	if _, err := fmt.Sscanf(s, "%f", &f); err != nil {
		return 0, err
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f, nil
}
