package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/report"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// doGet performs a GET with optional Accept and If-None-Match headers
// and returns the response with its body read.
func doGet(t *testing.T, url, accept, ifNoneMatch string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
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
	return resp, string(body)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := doGet(t, ts.URL+"/healthz", "", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestListJSON(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := doGet(t, ts.URL+"/experiments", "application/json", "")
	if resp.StatusCode != 200 {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != ctJSON {
		t.Errorf("content type %q", got)
	}
	var list []listEntry
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(list) != len(core.All()) {
		t.Errorf("listed %d experiments, registry has %d", len(list), len(core.All()))
	}
	found := false
	for _, e := range list {
		if e.ID == "T1" && e.Kind == "table" && e.Title != "" {
			found = true
		}
	}
	if !found {
		t.Error("T1 missing from listing")
	}
}

func TestListTextAndCSV(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := doGet(t, ts.URL+"/experiments", "", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "== experiments ==") {
		t.Errorf("text list: %d %q", resp.StatusCode, body[:min(len(body), 80)])
	}
	resp, body = doGet(t, ts.URL+"/experiments", "text/csv", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "id,kind,title") {
		t.Errorf("csv list: %d %q", resp.StatusCode, body[:min(len(body), 80)])
	}
}

func TestGetTextDefault(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.StatusCode != 200 {
		t.Fatalf("get T1: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != ctText {
		t.Errorf("content type %q", got)
	}
	if !strings.Contains(body, "ib-8n") {
		t.Errorf("T1 text missing platform rows: %q", body)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("no ETag on result")
	}
	if resp.Header.Get("X-Experiment-Elapsed") == "" {
		t.Error("no elapsed header")
	}
}

func TestGetNegotiation(t *testing.T) {
	ts := newTestServer(t, Config{})

	resp, body := doGet(t, ts.URL+"/experiments/T1?scale=quick", "application/json", "")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != ctJSON {
		t.Fatalf("json get: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var doc resultJSON
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad result JSON: %v", err)
	}
	if doc.ID != "T1" || doc.Scale != "quick" || len(doc.Sections) == 0 {
		t.Errorf("result JSON wrong: id=%s scale=%s sections=%d", doc.ID, doc.Scale, len(doc.Sections))
	}
	if len(doc.Sections[0].Rows) == 0 {
		t.Error("result JSON has no rows")
	}

	resp, body = doGet(t, ts.URL+"/experiments/T1", "text/csv", "")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != ctCSV {
		t.Fatalf("csv get: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "# ") || !strings.Contains(body, ",") {
		t.Errorf("csv body looks wrong: %q", body[:min(len(body), 120)])
	}

	// q-values: prefer csv over plain when the client says so.
	resp, _ = doGet(t, ts.URL+"/experiments/T1", "text/plain;q=0.3, text/csv", "")
	if resp.Header.Get("Content-Type") != ctCSV {
		t.Errorf("q-value negotiation chose %q, want csv", resp.Header.Get("Content-Type"))
	}

	// Wildcard falls back to the server preference, text/plain.
	resp, _ = doGet(t, ts.URL+"/experiments/T1", "*/*", "")
	if resp.Header.Get("Content-Type") != ctText {
		t.Errorf("*/* chose %q, want text", resp.Header.Get("Content-Type"))
	}

	// Nothing acceptable -> 406.
	resp, _ = doGet(t, ts.URL+"/experiments/T1", "image/png", "")
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("image/png got %d, want 406", resp.StatusCode)
	}
}

func TestETagRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := doGet(t, ts.URL+"/experiments/T4", "application/json", "")
	if resp.StatusCode != 200 {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("ETag not a quoted strong validator: %q", etag)
	}

	// Matching If-None-Match -> 304 with no body, ETag still present.
	resp, body = doGet(t, ts.URL+"/experiments/T4", "application/json", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match match got %d, want 304", resp.StatusCode)
	}
	if body != "" {
		t.Errorf("304 carried a body: %q", body)
	}
	if resp.Header.Get("ETag") != etag {
		t.Errorf("304 lost the ETag")
	}

	// If-None-Match uses weak comparison: a weakened validator with
	// the same opaque tag still revalidates (RFC 9110 §13.1.2).
	resp, _ = doGet(t, ts.URL+"/experiments/T4", "application/json", "W/"+etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("weak If-None-Match got %d, want 304", resp.StatusCode)
	}

	// A stale validator still gets the full response.
	resp, body = doGet(t, ts.URL+"/experiments/T4", "application/json", `"deadbeef"`)
	if resp.StatusCode != 200 || body == "" {
		t.Errorf("stale If-None-Match got %d", resp.StatusCode)
	}

	// Different representations have different ETags.
	respText, _ := doGet(t, ts.URL+"/experiments/T4", "text/plain", "")
	if respText.Header.Get("ETag") == etag {
		t.Error("text and JSON share an ETag")
	}

	// A repeat request is a cache hit with the same validator.
	resp, _ = doGet(t, ts.URL+"/experiments/T4", "application/json", "")
	if resp.Header.Get("ETag") != etag {
		t.Error("cached result changed its ETag")
	}
}

func TestUnknownExperiment404(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, _ := doGet(t, ts.URL+"/experiments/Z9", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ID got %d, want 404", resp.StatusCode)
	}
}

func TestBadScale400(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, _ := doGet(t, ts.URL+"/experiments/T1?scale=huge", "", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scale got %d, want 400", resp.StatusCode)
	}
}

func TestScaleLimit403(t *testing.T) {
	// Default config limits the server to quick scale.
	ts := newTestServer(t, Config{})
	resp, body := doGet(t, ts.URL+"/experiments/T1?scale=full", "", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("full on quick-limited server got %d, want 403: %s", resp.StatusCode, body)
	}
}

// stubRun returns a RunFunc that counts executions and sleeps long
// enough for concurrent requests to pile onto a cold cache entry.
func stubRun(runs *atomic.Int32, delay time.Duration) func(core.Experiment, core.Request) core.Result {
	return func(e core.Experiment, r core.Request) core.Result {
		runs.Add(1)
		time.Sleep(delay)
		rec := report.NewRecorder()
		tbl := report.NewTable("stub", "k", "v")
		tbl.AddRow("answer", 42)
		tbl.Fprint(rec)
		return core.Result{Experiment: e, Req: r, Rec: rec, Elapsed: delay}
	}
}

func TestSingleFlight(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 50*time.Millisecond)})

	const clients = 12
	etags := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := doGet(t, ts.URL+"/experiments/T1", "", "")
			if resp.StatusCode != 200 || !strings.Contains(body, "answer") {
				t.Errorf("client %d: %d %q", i, resp.StatusCode, body)
			}
			etags[i] = resp.Header.Get("ETag")
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("cold cache ran the experiment %d times, want exactly 1", got)
	}
	for i := 1; i < clients; i++ {
		if etags[i] != etags[0] {
			t.Errorf("client %d saw a different ETag", i)
		}
	}

	// Distinct scales are distinct cache keys... but full is limited;
	// a second id instead.
	doGet(t, ts.URL+"/experiments/T4", "", "")
	if got := runs.Load(); got != 2 {
		t.Errorf("second id reused the first id's cache entry (runs=%d)", got)
	}
}

func TestFailedRunNotCached(t *testing.T) {
	var runs atomic.Int32
	fail := true
	var mu sync.Mutex
	cfg := Config{RunFunc: func(e core.Experiment, req core.Request) core.Result {
		runs.Add(1)
		mu.Lock()
		f := fail
		mu.Unlock()
		r := core.Run(e, req)
		if f {
			r.Err = io.ErrUnexpectedEOF
		}
		return r
	}}
	ts := newTestServer(t, cfg)

	resp, _ := doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed run got %d, want 500", resp.StatusCode)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	resp, _ = doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.StatusCode != 200 {
		t.Errorf("retry after failure got %d, want 200", resp.StatusCode)
	}
	if runs.Load() != 2 {
		t.Errorf("expected the failure not to be cached (runs=%d)", runs.Load())
	}
}

// TestFailedFillWaiterIsNotAHit: a request that waited on someone
// else's fill only counts a memory hit if that fill succeeded. Both
// waiting entry points — a blocking GET and an async job — park behind
// one gated, failing run; each gets the failure, neither a hit.
func TestFailedFillWaiterIsNotAHit(t *testing.T) {
	var runs atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	srv := New(Config{RunFunc: func(e core.Experiment, req core.Request) core.Result {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-release
		return core.Result{Err: io.ErrUnexpectedEOF}
	}})
	ts := newHTTPTestServer(t, srv)

	var wg sync.WaitGroup
	blockingGet := func() {
		defer wg.Done()
		if resp, _ := doGet(t, ts.URL+"/experiments/T1", "", ""); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("GET behind a failing fill got %d, want 500", resp.StatusCode)
		}
	}
	wg.Add(1)
	go blockingGet() // owns the fill
	<-started
	wg.Add(1)
	go blockingGet() // waits on it
	sub := submitJob(t, ts.URL, "id=T1")
	j, _ := srv.jobs.Get(sub.Job)
	for deadline := time.Now().Add(5 * time.Second); j.State() != jobs.Running; {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// The pause only widens the window in which both waiters park on the
	// entry; one arriving late fails a run of its own, still without a hit.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	evs := drainSSE(t, ts.URL+sub.EventsURL, "")
	if last := evs[len(evs)-1]; last.Event != string(jobs.Failed) {
		t.Errorf("job behind a failing fill ended %q, want failed", last.Event)
	}
	if st := srv.Stats(); st.MemHits != 0 {
		t.Errorf("mem_hits = %d after a failed fill, want 0", st.MemHits)
	}
}

func TestPanickingRunDoesNotWedgeCache(t *testing.T) {
	// A fill that panics must complete the cache entry (as an error)
	// rather than leaving every future request blocked on it.
	var runs atomic.Int32
	cfg := Config{RunFunc: func(e core.Experiment, req core.Request) core.Result {
		if runs.Add(1) == 1 {
			panic("experiment blew up")
		}
		return core.Run(e, req)
	}}
	ts := newTestServer(t, cfg)

	resp, body := doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "panicked") {
		t.Fatalf("panicking run got %d %q, want 500 mentioning the panic", resp.StatusCode, body)
	}
	// The failed fill was dropped, so a retry runs and succeeds.
	resp, _ = doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.StatusCode != 200 {
		t.Errorf("request after panic got %d, want 200", resp.StatusCode)
	}
}

// TestSparseStubServedUnderRequestIdentity: a RunFunc whose result
// carries no Experiment or Req is still cached and served under the
// request's own key, and its JSON envelope names the request.
func TestSparseStubServedUnderRequestIdentity(t *testing.T) {
	ts := newTestServer(t, Config{RunFunc: func(core.Experiment, core.Request) core.Result {
		rec := report.NewRecorder()
		tbl := report.NewTable("sparse", "k", "v")
		tbl.AddRow("answer", 42)
		tbl.Fprint(rec)
		return core.Result{Rec: rec} // no Experiment/Request stamped
	}})
	resp, body := doGet(t, ts.URL+"/experiments/T4", "", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "answer") {
		t.Errorf("sparse-stub result not served: %d %q", resp.StatusCode, body)
	}
	_, jbody := doGet(t, ts.URL+"/experiments/T4", "application/json", "")
	var doc resultJSON
	if err := json.Unmarshal([]byte(jbody), &doc); err != nil {
		t.Fatalf("bad result JSON: %v", err)
	}
	if doc.ID != "T4" || doc.Scale != "quick" {
		t.Errorf("envelope identity = %s/%s, want T4/quick", doc.ID, doc.Scale)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   string
	}{
		{"", ctText},
		{"text/plain", ctText},
		{"application/json", ctJSON},
		{"text/csv", ctCSV},
		{"*/*", ctText},
		{"text/*", ctText},
		{"application/*", ctJSON},
		{"text/html", ""},
		{"text/html, */*;q=0.1", ctText},
		{"text/csv;q=0.9, application/json", ctJSON},
		{"text/plain;q=0, application/json", ctJSON},
		{"application/json;q=0.4, text/csv;q=0.5", ctCSV},
		// Media types compare case-insensitively (RFC 9110 §12.5.1).
		{"Application/JSON", ctJSON},
		{"TEXT/CSV", ctCSV},
		// A malformed q-value is ignored (the clause keeps q=1), never
		// prefix-parsed; NaN is malformed too.
		{"text/csv;q=0.5abc, application/json;q=0.9", ctCSV},
		{"application/json;q=nan, text/csv;q=0.9", ctJSON},
		{"text/csv;q=NaN", ctCSV},
		{"application/json;q=, text/csv;q=0.9", ctJSON},
		{"text/csv;q=-1, application/json;q=0.1", ctJSON},
		{"text/csv;q=7, application/json;q=0.9", ctCSV},
	}
	for _, c := range cases {
		if got := negotiate(c.accept); got != c.want {
			t.Errorf("negotiate(%q) = %q, want %q", c.accept, got, c.want)
		}
	}
}

func TestPlatformParam(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Explicit platform restricts the output to that preset.
	resp, body := doGet(t, ts.URL+"/experiments/T1?platform=gige-8n", "", "")
	if resp.StatusCode != 200 {
		t.Fatalf("T1?platform=gige-8n: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "gige-8n") || strings.Contains(body, "ib-8n") {
		t.Errorf("platform-qualified T1 body wrong: %q", body)
	}
	etagPlat := resp.Header.Get("ETag")

	// The default-platform entry is a distinct cache key with a
	// distinct ETag (it renders the whole canonical set).
	resp, _ = doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.Header.Get("ETag") == etagPlat {
		t.Error("default and platform-qualified T1 share an ETag")
	}

	// The JSON envelope names the platform only when explicit.
	_, jbody := doGet(t, ts.URL+"/experiments/T1?platform=gige-8n", "application/json", "")
	var doc resultJSON
	if err := json.Unmarshal([]byte(jbody), &doc); err != nil {
		t.Fatalf("bad result JSON: %v", err)
	}
	if doc.Platform != "gige-8n" {
		t.Errorf("envelope platform = %q, want gige-8n", doc.Platform)
	}
	_, jbody = doGet(t, ts.URL+"/experiments/T1", "application/json", "")
	var defDoc resultJSON
	if err := json.Unmarshal([]byte(jbody), &defDoc); err != nil {
		t.Fatalf("bad result JSON: %v", err)
	}
	if defDoc.Platform != "" {
		t.Errorf("default envelope platform = %q, want empty", defDoc.Platform)
	}
	if strings.Contains(jbody, `"platform":`) {
		t.Error("default envelope carries a platform key (breaks pre-axis byte compatibility)")
	}
}

func TestPlatformParam400(t *testing.T) {
	ts := newTestServer(t, Config{})
	// The error code, not the message prose, is the contract clients
	// branch on: each platform failure class draws its own.
	cases := []struct {
		path string
		code string
	}{
		// Unknown name.
		{"/experiments/T1?platform=cray-1", codeUnknownPlatform},
		// Known preset incompatible with the experiment (F1 needs a
		// multi-node fabric; smp-1n has one node).
		{"/experiments/F1?platform=smp-1n", codeIncompatiblePlatform},
		// Host-only experiments reject every explicit platform.
		{"/experiments/T2?platform=ib-8n", codeNoPlatformAxis},
	}
	for _, c := range cases {
		resp, body := doGet(t, ts.URL+c.path, "application/json", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s got %d, want 400", c.path, resp.StatusCode)
			continue
		}
		env := decodeErrorEnvelope(t, body)
		if env.Code != c.code {
			t.Errorf("%s code = %q, want %q", c.path, env.Code, c.code)
		}
		if env.Error == "" || env.Hint == "" {
			t.Errorf("%s envelope missing message or hint: %+v", c.path, env)
		}
	}
	// Text clients see the same code in the one-line rendering.
	resp, body := doGet(t, ts.URL+"/experiments/T1?platform=cray-1", "", "")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "["+codeUnknownPlatform+"]") {
		t.Errorf("text error rendering got %d %q, want the [%s] code", resp.StatusCode, body, codeUnknownPlatform)
	}
	if !strings.HasPrefix(body, "error: ") {
		t.Errorf("text error rendering lost its prefix: %q", body)
	}
}

func TestPlatformKeysAreDistinctCacheSlots(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})
	doGet(t, ts.URL+"/experiments/T1", "", "")
	doGet(t, ts.URL+"/experiments/T1?platform=gige-8n", "", "")
	doGet(t, ts.URL+"/experiments/T1?platform=ib-8n", "", "")
	if got := runs.Load(); got != 3 {
		t.Errorf("three distinct platform keys ran %d times, want 3", got)
	}
	// Repeats hit the warm entries.
	doGet(t, ts.URL+"/experiments/T1?platform=gige-8n", "", "")
	if got := runs.Load(); got != 3 {
		t.Errorf("repeat platform request re-ran (runs=%d)", got)
	}
}

func TestListAdvertisesPlatforms(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, body := doGet(t, ts.URL+"/experiments", "application/json", "")
	var list []listEntry
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	byID := map[string]listEntry{}
	for _, e := range list {
		byID[e.ID] = e
	}
	if got := byID["T1"].Platforms; len(got) != 6 {
		t.Errorf("T1 advertises %v, want all six presets", got)
	}
	if got := byID["M5"].Platforms; len(got) != 2 {
		t.Errorf("M5 advertises %v, want the two NUMA presets", got)
	}
	if got := byID["T2"].Platforms; got != nil {
		t.Errorf("host-only T2 advertises %v, want none", got)
	}
	for _, p := range byID["F1"].Platforms {
		if p == "smp-1n" || p == "fat-1n" {
			t.Errorf("F1 advertises single-node preset %s", p)
		}
	}
	// The text listing carries the platforms column too.
	_, tbody := doGet(t, ts.URL+"/experiments", "", "")
	if !strings.Contains(tbody, "platforms") || !strings.Contains(tbody, "gige-8n") {
		t.Errorf("text listing missing platform column: %q", tbody[:min(len(tbody), 200)])
	}
}
