// The HTTP front end charhpcd and charhpc-router share: the routes,
// request IDs, the per-route request counter and latency histogram,
// and one access-log line per request. Both tiers mount Routes and wrap
// their mux in a Middleware, so routes, labels and log cannot drift.
package serve

import (
	"net/http"
	"strconv"
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

// Routes is the API both tiers serve, declared once: each route's
// method and path as http.ServeMux reads them, and the handler label a
// request that matched it is counted under. A request that matches no
// route (a 404 or 405) is "other"; a label is never the raw path, whose
// cardinality is caller-controlled.
var Routes = []struct{ Pattern, Label string }{
	{"GET /healthz", "healthz"},
	{"GET /metrics", "metrics"},
	{"GET /debug/traces", "debug_traces"},
	{"GET /experiments", "experiments_list"},
	{"GET /experiments/{id}", "experiment_get"},
	{"GET /platforms", "platforms"},
	{"POST /platforms", "platform_register"},
	{"GET /platforms/{name}", "platform_get"},
	{"GET /runs", "runs"},
	{"POST /runs", "run_submit"},
	{"GET /runs/{job}", "run_get"},
	{"DELETE /runs/{job}", "run_cancel"},
	{"GET /runs/{job}/events", "run_events"},
}

// Mount registers handlers[label] for every route in Routes. It
// panics on a route without a handler, so no tier can drop one.
func Mount(mux *http.ServeMux, handlers map[string]http.HandlerFunc) {
	for _, rt := range Routes {
		h := handlers[rt.Label]
		if h == nil {
			panic("serve: no handler for " + rt.Pattern)
		}
		mux.HandleFunc(rt.Pattern, labeled(rt.Label, h))
	}
}

// labeled names the matched route to the Middleware, then runs h on
// the same writer, so h still sees its http.Flusher. A mux that Mount
// fills is served only as a Middleware's Next, so w is its writer.
func labeled(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.(*statusWriter).label = label
		h(w, r)
	}
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
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, label: "other"}
	m.Next.ServeHTTP(sw, r)

	elapsed := time.Since(t0)
	m.Registry.Counter(m.RequestsName, m.RequestsHelp,
		obs.L("handler", sw.label), obs.L("code", strconv.Itoa(sw.code))).Inc()
	m.Registry.Histogram(m.LatencyName, m.LatencyHelp, nil,
		obs.L("handler", sw.label)).Observe(elapsed.Seconds())
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

// statusWriter captures the route's label and the status code and body
// size its handler produced, for the request metrics and access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	label string // "other" until a route's handler runs
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
