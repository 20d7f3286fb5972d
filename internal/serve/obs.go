// The service's observability surface: the metric instruments and the
// GET /metrics, GET /debug/traces, and /debug/pprof handlers (the
// request middleware is middleware.go).
// Metric names and label sets are documented in this package's README;
// the CI smoke test greps them, so renames are breaking changes.
package serve

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/obs"
)

// ctProm is the Prometheus text exposition content type.
const ctProm = "text/plain; version=0.0.4; charset=utf-8"

// telemetry bundles the server's instruments. All of them live in one
// obs.Registry (scraped by GET /metrics); the handles are cached here
// so hot paths skip the registry's name lookup.
type telemetry struct {
	reg *obs.Registry

	// Cache-tier counters: how each request's result was produced.
	runTotal  *obs.Counter // tier="run": experiment executions started
	memHits   *obs.Counter // tier="mem": answered by a filled or in-flight memory entry
	diskLoads *obs.Counter // tier="disk": cold keys filled from the disk store
	diskErrs  *obs.Counter // failed disk-store writes

	sfWait *obs.Histogram // time requests spent waiting on the single-flight entry

	// Async job counters (POST /runs): submissions and terminal states.
	jobsSubmitted *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCanceled  *obs.Counter
	jobEvents     *obs.Counter // progress events appended across all job logs

	// Custom-platform registration counters (POST /platforms).
	customRegistered *obs.Counter // state="registered": first sighting of a machine
	customDuplicate  *obs.Counter // state="duplicate": idempotent re-POST
	customRejected   *obs.Counter // state="rejected": invalid or oversized spec
}

// newTelemetry registers the server's instruments on reg and, when a
// disk store is configured, wires its operation metrics too.
func newTelemetry(reg *obs.Registry, store *diskcache.Store) *telemetry {
	m := &telemetry{reg: reg}
	tier := func(t string) *obs.Counter {
		return reg.Counter("charhpc_cache_requests_total",
			"results produced per cache tier (run = executed, mem = memory hit, disk = store load)",
			obs.L("tier", t))
	}
	m.runTotal = tier("run")
	m.memHits = tier("mem")
	m.diskLoads = tier("disk")
	m.diskErrs = reg.Counter("charhpc_cache_errors_total",
		"failed cache operations (the entry still serves from memory)", obs.L("tier", "disk"))
	m.sfWait = reg.Histogram("charhpc_singleflight_wait_seconds",
		"time requests waited on an in-flight or cached single-flight entry", nil)
	jobState := func(st string) *obs.Counter {
		return reg.Counter("charhpc_jobs_total",
			"async run jobs by lifecycle edge (submitted) and terminal state (done, failed, canceled)",
			obs.L("state", st))
	}
	m.jobsSubmitted = jobState("submitted")
	m.jobsDone = jobState("done")
	m.jobsFailed = jobState("failed")
	m.jobsCanceled = jobState("canceled")
	m.jobEvents = reg.Counter("charhpc_job_events_total",
		"progress events appended across all job event logs")
	customState := func(st string) *obs.Counter {
		return reg.Counter("charhpc_custom_platforms",
			"custom-platform registrations by outcome (registered, duplicate, rejected)",
			obs.L("state", st))
	}
	m.customRegistered = customState("registered")
	m.customDuplicate = customState("duplicate")
	m.customRejected = customState("rejected")
	if store != nil {
		op := func(o string) *obs.Histogram {
			return reg.Histogram("charhpc_diskcache_op_seconds",
				"disk store operation latency", nil, obs.L("op", o))
		}
		by := func(o string) *obs.Counter {
			return reg.Counter("charhpc_diskcache_bytes_total",
				"result body bytes moved through the disk store", obs.L("op", o))
		}
		inval := func(reason string) *obs.Counter {
			return reg.Counter("charhpc_cache_invalidated_total",
				"disk entries invalidated, by reason (experiment = fingerprint delta, format = entry version, checksum = corruption)",
				obs.L("reason", reason))
		}
		store.SetMetrics(diskcache.Metrics{
			GetSeconds: op("get"),
			PutSeconds: op("put"),
			GetBytes:   by("get"),
			PutBytes:   by("put"),
			Evictions: reg.Counter("charhpc_diskcache_evictions_total",
				"disk store entry files evicted by the LRU byte budget"),
			InvalidatedExperiment: inval(diskcache.ReasonExperiment),
			InvalidatedFormat:     inval(diskcache.ReasonFormat),
			InvalidatedChecksum:   inval(diskcache.ReasonChecksum),
		})
	}
	return m
}

// registerScrapeGauges adds the computed-at-scrape gauges that need
// the fully built server: uptime, cache entry counts, build identity.
func (s *Server) registerScrapeGauges() {
	reg := s.m.reg
	reg.GaugeFunc("charhpc_uptime_seconds", "seconds since the server was built",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("charhpc_cache_entries", "entries per cache tier",
		func() float64 { return float64(s.cache.len()) }, obs.L("tier", "mem"))
	if s.cfg.Store != nil {
		reg.GaugeFunc("charhpc_cache_entries", "entries per cache tier",
			func() float64 { return float64(s.cfg.Store.Len()) }, obs.L("tier", "disk"))
	}
	reg.GaugeFunc("charhpc_build_info", "constant 1, labeled with the registry fingerprint",
		func() float64 { return 1 }, obs.L("fingerprint", core.Fingerprint()))
	reg.GaugeFunc("charhpc_jobs_active", "async run jobs currently executing",
		func() float64 { return float64(s.jobs.Running()) })
}

// Registry returns the server's metric registry, the one GET /metrics
// serves.
func (s *Server) Registry() *obs.Registry { return s.m.reg }

// handleMetrics serves the Prometheus text exposition of every
// registered instrument.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ctProm)
	s.m.reg.WritePrometheus(w)
}

// handleTraces serves the last N run traces as a JSON array, newest
// first. ?n= bounds the count (default: the ring size); values above
// the ring capacity are clamped rather than rejected — the ring can
// never hold more anyway.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i < 1 {
			WriteError(w, r, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("bad n %q (want a positive integer)", v), "")
			return
		}
		n = i
	}
	spans := s.traces.Recent(n)
	if spans == nil {
		spans = []*obs.Span{}
	}
	WriteJSON(w, http.StatusOK, spans)
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ on
// the server's own mux (the daemon's -pprof flag; off by default — the
// profile endpoints can pause the process and belong behind an
// operator's explicit choice, never on an internet-facing default).
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
