// The HTTP front end charhpcd and charhpc-router share: request IDs,
// the per-handler request counter and latency histogram, and one
// access-log line per request. Both tiers wrap their mux in a
// Middleware, so the label vocabulary and log fields cannot drift.
package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Middleware wraps Next. The tiers differ only in what they call their
// two instruments and their log line.
type Middleware struct {
	Next     http.Handler
	Registry *obs.Registry

	RequestsName, RequestsHelp string // counter, labeled handler and code
	LatencyName, LatencyHelp   string // histogram, labeled handler

	Log    *obs.Logger // nil-safe; nil disables the access log
	LogMsg string
}

// RequestIDHeader is X-Request-ID in net/http's canonical spelling, so
// Header.Get and Set need not re-canonicalise (and allocate) per call.
const RequestIDHeader = "X-Request-Id"

// ServeHTTP reuses an inbound X-Request-ID and mints one otherwise —
// stamped on the inbound header too, so a proxying Next forwards the
// same ID it echoes and one ID greps across every tier's access log —
// then runs Next and records the request.
func (m *Middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	rid := r.Header.Get(RequestIDHeader)
	if rid == "" {
		rid = obs.NewRequestID()
		r.Header.Set(RequestIDHeader, rid)
	}
	w.Header().Set(RequestIDHeader, rid)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	m.Next.ServeHTTP(sw, r)

	handler := handlerLabel(r.URL.Path)
	elapsed := time.Since(t0)
	m.Registry.Counter(m.RequestsName, m.RequestsHelp,
		obs.L("handler", handler), obs.L("code", strconv.Itoa(sw.code))).Inc()
	m.Registry.Histogram(m.LatencyName, m.LatencyHelp, nil,
		obs.L("handler", handler)).Observe(elapsed.Seconds())
	m.Log.Info(m.LogMsg,
		"request_id", rid,
		"method", r.Method,
		"path", r.URL.RequestURI(),
		"status", sw.code,
		"bytes", sw.bytes,
		"elapsed_ms", float64(elapsed.Microseconds())/1e3,
		"remote", r.RemoteAddr,
	)
}

// statusWriter captures the status code and body size a handler
// produced, for the request metrics and access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush passes the streaming capability through the wrapper — without
// it the SSE handler would see no http.Flusher and refuse to stream.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handlerLabel maps a request path to a bounded metric label — never
// the raw path, whose cardinality is caller-controlled.
func handlerLabel(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case path == "/debug/traces":
		return "debug_traces"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	case path == "/experiments":
		return "experiments_list"
	case strings.HasPrefix(path, "/experiments/"):
		return "experiment_get"
	case path == "/platforms":
		return "platforms"
	case strings.HasPrefix(path, "/platforms/"):
		return "platform_get"
	case path == "/runs":
		return "runs"
	case strings.HasPrefix(path, "/runs/") && strings.HasSuffix(path, "/events"):
		return "run_events"
	case strings.HasPrefix(path, "/runs/"):
		return "run_get"
	default:
		return "other"
	}
}
