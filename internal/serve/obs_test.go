package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// metricValue extracts the sample value of the exactly matching series
// line (name + label set) from a Prometheus exposition body, or "".
func metricValue(body, series string) string {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest
		}
	}
	return ""
}

func TestMetricsEndpoint(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})

	doGet(t, ts.URL+"/experiments/T1", "", "") // cold: one run
	doGet(t, ts.URL+"/experiments/T1", "", "") // warm: one memory hit

	resp, body := doGet(t, ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != ctProm {
		t.Errorf("content type %q, want %q", got, ctProm)
	}
	for series, want := range map[string]string{
		`charhpc_cache_requests_total{tier="mem"}`:                    "1",
		`charhpc_cache_requests_total{tier="run"}`:                    "1",
		`charhpc_cache_errors_total{tier="disk"}`:                     "0",
		`charhpc_requests_total{code="200",handler="experiment_get"}`: "2",
		`charhpc_cache_entries{tier="mem"}`:                           "1",
	} {
		if got := metricValue(body, series); got != want {
			t.Errorf("%s = %q, want %q\n%s", series, got, want, body)
		}
	}
	// Histograms expose the full bucket/sum/count triple.
	for _, want := range []string{
		`charhpc_request_seconds_bucket{handler="experiment_get",le="+Inf"} 2`,
		`charhpc_request_seconds_count{handler="experiment_get"} 2`,
		`charhpc_singleflight_wait_seconds_count 1`,
		"# TYPE charhpc_request_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !regexp.MustCompile(`charhpc_build_info\{fingerprint="[0-9a-f]+"\} 1`).MatchString(body) {
		t.Errorf("exposition missing build_info:\n%s", body)
	}
	if metricValue(body, "charhpc_uptime_seconds") == "" {
		t.Error("exposition missing uptime gauge")
	}
}

// TestDebugTraces drives a real core.Run (the default RunFunc) so the
// Recorder carries a span, then asserts /debug/traces returns it as a
// JSON tree, newest first.
func TestDebugTraces(t *testing.T) {
	ts := newTestServer(t, Config{})

	resp, body := doGet(t, ts.URL+"/debug/traces", "", "")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty ring: %d %q, want 200 []", resp.StatusCode, body)
	}

	doGet(t, ts.URL+"/experiments/T1", "", "")
	resp, body = doGet(t, ts.URL+"/debug/traces", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces: %d %s", resp.StatusCode, body)
	}
	var spans []struct {
		Name     string  `json:"name"`
		Elapsed  float64 `json:"elapsed_seconds"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children,omitempty"`
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(spans) != 1 || spans[0].Name != "T1" {
		t.Fatalf("spans = %+v, want one root named T1", spans)
	}
	if spans[0].Elapsed <= 0 {
		t.Errorf("root span has no duration: %+v", spans[0])
	}

	for _, bad := range []string{"?n=0", "?n=-1", "?n=x"} {
		if resp, _ := doGet(t, ts.URL+"/debug/traces"+bad, "", ""); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("traces%s: %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	ts := newTestServer(t, Config{})

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chose-this" {
		t.Errorf("echoed request id %q, want the caller's", got)
	}

	resp, _ = doGet(t, ts.URL+"/healthz", "", "")
	if got := resp.Header.Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("minted request id %q, want 16 hex chars", got)
	}
}

func TestHealthzEnriched(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})
	doGet(t, ts.URL+"/experiments/T1", "", "")
	_, body := doGet(t, ts.URL+"/healthz", "", "")
	for _, want := range []string{
		"ok runs=1 mem_hits=0 disk_loads=0 disk_errs=0", // legacy prefix: CI smoke parses it
		"fingerprint=", "uptime_seconds=", "mem_entries=1", "disk_entries=0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz missing %q: %q", want, body)
		}
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var runs atomic.Int32
	ts := newTestServer(t, Config{
		RunFunc:   stubRun(&runs, 0),
		AccessLog: obs.NewLogger(&buf, obs.FormatJSON),
	})
	req, _ := http.NewRequest("GET", ts.URL+"/experiments/T1", nil)
	req.Header.Set("X-Request-ID", "rid-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log is not JSON: %v\n%q", err, line)
	}
	for k, want := range map[string]any{
		"msg": "request", "request_id": "rid-123",
		"method": "GET", "path": "/experiments/T1", "status": float64(200),
	} {
		if rec[k] != want {
			t.Errorf("access log %s = %v, want %v", k, rec[k], want)
		}
	}
	if rec["bytes"].(float64) <= 0 || rec["elapsed_ms"].(float64) < 0 {
		t.Errorf("access log sizes/timing: %v", rec)
	}
}

// TestPprofGated: the profile endpoints exist only after EnablePprof,
// and are counted as handler "pprof" once they do; before, the request
// matches no route and is "other".
func TestPprofGated(t *testing.T) {
	srv := New(Config{})
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
		return rec
	}
	counted := func(handler, code string) int64 {
		return srv.Registry().Counter("charhpc_requests_total", "",
			obs.L("handler", handler), obs.L("code", code)).Value()
	}
	if rec := get(); rec.Code != http.StatusNotFound || counted("other", "404") != 1 {
		t.Errorf("pprof on by default: %d, other/404 counted %d", rec.Code, counted("other", "404"))
	}
	srv.EnablePprof()
	if rec := get(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index after EnablePprof: %d", rec.Code)
	}
	if n := counted("pprof", "200"); n != 1 {
		t.Errorf("pprof index counted %d times as handler=pprof, want 1", n)
	}
}

// TestMountPanicsOnMissingHandler: a tier that leaves a route of
// Routes without a handler fails at construction, not at request time.
func TestMountPanicsOnMissingHandler(t *testing.T) {
	handlers := map[string]http.HandlerFunc{}
	for _, rt := range Routes[1:] {
		handlers[rt.Label] = func(http.ResponseWriter, *http.Request) {}
	}
	defer func() {
		if p, _ := recover().(string); !strings.Contains(p, Routes[0].Pattern) {
			t.Errorf("Mount without a %q handler: panic %q, want one naming %q",
				Routes[0].Label, p, Routes[0].Pattern)
		}
	}()
	Mount(http.NewServeMux(), handlers)
}
