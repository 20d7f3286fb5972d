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

// telemetry bundles the instruments serve drives itself. All of them
// live in one obs.Registry (scraped by GET /metrics); the handles are
// cached here so hot paths skip the registry's name lookup.
type telemetry struct {
	reg *obs.Registry

	// Cache-tier counters: how each request's result was produced.
	runTotal  *obs.Counter // tier="run": experiment executions started
	memHits   *obs.Counter // tier="mem": answered by a filled or in-flight memory entry
	diskLoads *obs.Counter // tier="disk": cold keys filled from the disk store
	diskErrs  *obs.Counter // failed disk-store writes

	sfWait *obs.Histogram // time requests spent waiting on the single-flight entry

	// Latency of the disk store's Get and Put calls; nil without a store.
	storeGet, storePut *obs.Histogram

	// Custom-platform registration counters (POST /platforms).
	customRegistered *obs.Counter // state="registered": first sighting of a machine
	customDuplicate  *obs.Counter // state="duplicate": idempotent re-POST
	customRejected   *obs.Counter // state="rejected": invalid or oversized spec
}

// newTelemetry registers the server's instruments on reg: those serve
// drives, and the series read at scrape time from counts kept where
// they are counted — the job registry's, the disk store's and the
// server's own.
func (s *Server) newTelemetry(reg *obs.Registry) *telemetry {
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
	customState := func(st string) *obs.Counter {
		return reg.Counter("charhpc_custom_platforms",
			"custom-platform registrations by outcome (registered, duplicate, rejected)",
			obs.L("state", st))
	}
	m.customRegistered = customState("registered")
	m.customDuplicate = customState("duplicate")
	m.customRejected = customState("rejected")

	jobCounts := s.jobs.Counts
	const jobsHelp = "async run jobs by lifecycle edge (submitted) and terminal state (done, failed, canceled)"
	reg.CounterFunc("charhpc_jobs_total", jobsHelp, func() int64 { return jobCounts().Submitted }, obs.L("state", "submitted"))
	reg.CounterFunc("charhpc_jobs_total", jobsHelp, func() int64 { return jobCounts().Done }, obs.L("state", "done"))
	reg.CounterFunc("charhpc_jobs_total", jobsHelp, func() int64 { return jobCounts().Failed }, obs.L("state", "failed"))
	reg.CounterFunc("charhpc_jobs_total", jobsHelp, func() int64 { return jobCounts().Canceled }, obs.L("state", "canceled"))
	reg.CounterFunc("charhpc_job_events_total", "progress events appended across all job event logs",
		func() int64 { return jobCounts().Events })
	reg.GaugeFunc("charhpc_jobs_active", "async run jobs currently executing",
		func() float64 { return float64(jobCounts().Running) })

	if st := s.cfg.Store; st != nil {
		op := func(o string) *obs.Histogram {
			return reg.Histogram("charhpc_diskcache_op_seconds",
				"disk store operation latency", nil, obs.L("op", o))
		}
		m.storeGet, m.storePut = op("get"), op("put")
		const bytesHelp = "result body bytes moved through the disk store"
		reg.CounterFunc("charhpc_diskcache_bytes_total", bytesHelp, func() int64 { return st.Counts().GetBytes }, obs.L("op", "get"))
		reg.CounterFunc("charhpc_diskcache_bytes_total", bytesHelp, func() int64 { return st.Counts().PutBytes }, obs.L("op", "put"))
		reg.CounterFunc("charhpc_diskcache_evictions_total", "disk store entry files evicted by the LRU byte budget",
			func() int64 { return st.Counts().Evictions })
		const invalHelp = "disk entries invalidated, by reason (experiment = fingerprint delta, format = entry version, checksum = corruption)"
		reg.CounterFunc("charhpc_cache_invalidated_total", invalHelp, func() int64 { return st.Counts().InvalidatedExperiment },
			obs.L("reason", diskcache.ReasonExperiment))
		reg.CounterFunc("charhpc_cache_invalidated_total", invalHelp, func() int64 { return st.Counts().InvalidatedFormat },
			obs.L("reason", diskcache.ReasonFormat))
		reg.CounterFunc("charhpc_cache_invalidated_total", invalHelp, func() int64 { return st.Counts().InvalidatedChecksum },
			obs.L("reason", diskcache.ReasonChecksum))
		reg.GaugeFunc("charhpc_cache_entries", "entries per cache tier",
			func() float64 { return float64(st.Len()) }, obs.L("tier", "disk"))
	}
	reg.GaugeFunc("charhpc_cache_entries", "entries per cache tier",
		func() float64 { return float64(s.cache.len()) }, obs.L("tier", "mem"))
	reg.GaugeFunc("charhpc_uptime_seconds", "seconds since the server was built",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("charhpc_build_info", "constant 1, labeled with the registry fingerprint",
		func() float64 { return 1 }, obs.L("fingerprint", core.Fingerprint()))
	return m
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

// EnablePprof mounts net/http/pprof's handlers, as handler "pprof",
// under /debug/pprof/ on the server's own mux (the daemon's -pprof
// flag; off by default — the profile endpoints can pause the process
// and belong behind an operator's explicit choice, never on an
// internet-facing default).
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", labeled("pprof", pprof.Index))
	s.mux.HandleFunc("GET /debug/pprof/cmdline", labeled("pprof", pprof.Cmdline))
	s.mux.HandleFunc("GET /debug/pprof/profile", labeled("pprof", pprof.Profile))
	s.mux.HandleFunc("GET /debug/pprof/symbol", labeled("pprof", pprof.Symbol))
	s.mux.HandleFunc("GET /debug/pprof/trace", labeled("pprof", pprof.Trace))
}
