package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// submitJob POSTs /runs with the given query and decodes the 202 body.
func submitJob(t *testing.T, base, query string) SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+"/runs?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs?%s: %d, want 202", query, resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.Job == "" || sub.EventsURL != "/runs/"+sub.Job+"/events" {
		t.Fatalf("submit response = %+v", sub)
	}
	if loc := resp.Header.Get("Location"); loc != "/runs/"+sub.Job {
		t.Errorf("Location = %q, want /runs/%s", loc, sub.Job)
	}
	return sub
}

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	ID    int
	Event string
	Data  jobs.Event
}

// drainSSE reads the events stream until its terminal event (the
// server closes the stream after it) and returns every frame in order.
// lastEventID, when non-empty, resumes via the standard header.
func drainSSE(t *testing.T, url, lastEventID string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ctSSE {
		t.Fatalf("events content type = %q, want %q", ct, ctSSE)
	}
	var (
		out []sseEvent
		cur sseEvent
	)
	cur.ID = -1
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{ID: -1}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID)
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJobStreamRealRun drives the whole async contract against a real
// experiment execution: POST /runs, drain the SSE stream, and verify
// it is ordered, carries live phase and section events from the run's
// own instrumentation, and ends with a terminal event whose ETag is
// exactly what the blocking GET serves (304 on If-None-Match) — the
// job filled the same cache the synchronous path reads.
func TestJobStreamRealRun(t *testing.T) {
	ts := newTestServer(t, Config{}) // nil RunFunc: real runs with hooks
	sub := submitJob(t, ts.URL, "id=T1")

	evs := drainSSE(t, ts.URL+sub.EventsURL, "")
	if len(evs) < 4 {
		t.Fatalf("stream has %d events, want at least pending/running/phase/terminal: %+v", len(evs), evs)
	}
	phases, sections := 0, 0
	for i, ev := range evs {
		if ev.ID != i || ev.Data.Seq != i {
			t.Errorf("event %d: id=%d seq=%d — stream must be dense and ordered", i, ev.ID, ev.Data.Seq)
		}
		switch ev.Event {
		case jobs.EventPhase:
			phases++
		case jobs.EventSection:
			sections++
		}
	}
	if phases < 1 || sections < 1 {
		t.Errorf("stream carried %d phase and %d section events, want >=1 of each", phases, sections)
	}
	last := evs[len(evs)-1]
	if last.Event != string(jobs.Done) || !last.Data.Terminal() {
		t.Fatalf("last event = %+v, want done terminal", last)
	}
	if last.Data.Data["tier"] != "run" {
		t.Errorf("terminal tier = %q, want run", last.Data.Data["tier"])
	}
	etag := last.Data.Data["etag"]
	if etag == "" {
		t.Fatal("terminal event has no etag")
	}

	// Hand-off: the blocking GET serves the job's cached result.
	resp, body := doGet(t, ts.URL+last.Data.Data["url"], "", "")
	if resp.StatusCode != 200 || resp.Header.Get("ETag") != etag {
		t.Fatalf("handoff GET: %d etag=%q, want 200 with %q", resp.StatusCode, resp.Header.Get("ETag"), etag)
	}
	if !strings.Contains(body, "ib-8n") {
		t.Errorf("handoff body is not the real T1 output: %q", body[:min(len(body), 80)])
	}
	if resp, _ := doGet(t, ts.URL+last.Data.Data["url"], "", etag); resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match with job etag: %d, want 304", resp.StatusCode)
	}

	// Resuming mid-stream replays only the tail.
	tail := drainSSE(t, ts.URL+sub.EventsURL, "1")
	if len(tail) != len(evs)-2 || tail[0].ID != 2 {
		t.Errorf("resume from id 1: got %d events starting at %d, want %d starting at 2",
			len(tail), tail[0].ID, len(evs)-2)
	}

	// The run executed exactly once even though the job and the GET
	// both wanted it.
	if st := parseHealthz(t, ts.URL); st["runs"] != "1" || st["jobs_done"] != "1" {
		t.Errorf("healthz after job+get = %v, want runs=1 jobs_done=1", st)
	}
}

// TestCoalescedJobsStreamOneStory: two jobs on one cold key follow its
// one fill. Whichever job owns the fill, both stream the run's phase
// and section events in the same order with dense seqs, and the key
// runs once.
func TestCoalescedJobsStreamOneStory(t *testing.T) {
	ts := newTestServer(t, Config{}) // real runs: F6 runs long enough for the second job to join
	subs := []SubmitResponse{submitJob(t, ts.URL, "id=F6"), submitJob(t, ts.URL, "id=F6")}

	var stories [2][]string
	var tiers []string
	for i, sub := range subs {
		evs := drainSSE(t, ts.URL+sub.EventsURL, "")
		for n, ev := range evs {
			if ev.ID != n {
				t.Errorf("job %d event %d has id %d — stream must be dense", i, n, ev.ID)
			}
			if ev.Event == jobs.EventPhase || ev.Event == jobs.EventSection {
				stories[i] = append(stories[i], ev.Event+" "+fmt.Sprint(ev.Data.Data))
			}
		}
		last := evs[len(evs)-1]
		if last.Event != string(jobs.Done) {
			t.Fatalf("job %d ended %+v, want done", i, last)
		}
		tiers = append(tiers, last.Data.Data["tier"])
	}
	if len(stories[0]) == 0 {
		t.Fatal("the first job streamed no phase or section events")
	}
	if !slices.Equal(stories[0], stories[1]) {
		t.Errorf("the two jobs streamed different progress:\n%q\n%q", stories[0], stories[1])
	}
	slices.Sort(tiers)
	if fmt.Sprint(tiers) != "[mem run]" {
		t.Errorf("tiers = %v, want one run and one mem", tiers)
	}
	if st := parseHealthz(t, ts.URL); st["runs"] != "1" {
		t.Errorf("healthz runs = %s, want 1", st["runs"])
	}
}

// TestJobsAreNotQueued: jobs on distinct cold keys all start at once;
// nothing holds one back for a slot.
func TestJobsAreNotQueued(t *testing.T) {
	var runs atomic.Int32
	stub := stubRun(&runs, 0)
	started, release := make(chan struct{}, 4), make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseAll)
	ts := newTestServer(t, Config{RunFunc: func(e core.Experiment, r core.Request) core.Result {
		started <- struct{}{}
		<-release
		return stub(e, r)
	}})
	ids := []string{"T1", "T4", "F1", "M3"}
	var subs []SubmitResponse
	for _, id := range ids {
		subs = append(subs, submitJob(t, ts.URL, "id="+id))
	}
	timeout := time.After(5 * time.Second)
	for n := range ids {
		select {
		case <-started:
		case <-timeout:
			t.Fatalf("%d of %d jobs on distinct cold keys started", n, len(ids))
		}
	}
	if st := parseHealthz(t, ts.URL); st["jobs_active"] != "4" {
		t.Errorf("healthz jobs_active = %s with 4 jobs running, want 4", st["jobs_active"])
	}
	releaseAll()
	for _, sub := range subs {
		evs := drainSSE(t, ts.URL+sub.EventsURL, "")
		if last := evs[len(evs)-1]; last.Event != string(jobs.Done) {
			t.Errorf("job %s ended %+v, want done", sub.Job, last)
		}
	}
}

// TestPanickingJobFails: a job whose run panics ends failed, naming the
// panic, and leaves the key cold, so a later GET runs it again.
func TestPanickingJobFails(t *testing.T) {
	var runs atomic.Int32
	stub := stubRun(&runs, 0)
	var calls atomic.Int32
	ts := newTestServer(t, Config{RunFunc: func(e core.Experiment, r core.Request) core.Result {
		if calls.Add(1) == 1 {
			panic("job run blew up")
		}
		return stub(e, r)
	}})
	evs := drainSSE(t, ts.URL+submitJob(t, ts.URL, "id=T1").EventsURL, "")
	last := evs[len(evs)-1]
	if last.Event != string(jobs.Failed) || !strings.Contains(last.Data.Data["error"], "panicked") {
		t.Fatalf("terminal = %+v, want failed mentioning the panic", last)
	}
	resp, body := doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "answer") {
		t.Errorf("GET after the panicked job: %d %q, want 200", resp.StatusCode, body)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("T1 ran %d times, want 2 (the panicked fill was not cached)", n)
	}
}

// TestHealthzJobsDoneIsLifetimeCount: jobs_done keeps counting past
// the finished-job history bound instead of saturating at it.
func TestHealthzJobsDoneIsLifetimeCount(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0), JobsHistory: 1})
	for i := 0; i < 3; i++ {
		drainSSE(t, ts.URL+submitJob(t, ts.URL, "id=T1").EventsURL, "")
	}
	if st := parseHealthz(t, ts.URL); st["jobs_done"] != "3" {
		t.Errorf("healthz jobs_done = %s after 3 jobs with history 1, want 3", st["jobs_done"])
	}
}

// parseHealthz splits the healthz line into its k=v tokens.
func parseHealthz(t *testing.T, base string) map[string]string {
	t.Helper()
	_, body := doGet(t, base+"/healthz", "", "")
	out := map[string]string{}
	for _, tok := range strings.Fields(strings.TrimSpace(body)) {
		if k, v, ok := strings.Cut(tok, "="); ok {
			out[k] = v
		}
	}
	return out
}

// TestJobCoalescesWithBlockingGet: a job for an already cached key is
// answered from the memory tier without re-running.
func TestJobCoalescesWithBlockingGet(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})
	doGet(t, ts.URL+"/experiments/T1", "", "") // warm the key

	sub := submitJob(t, ts.URL, "id=T1")
	evs := drainSSE(t, ts.URL+sub.EventsURL, "")
	last := evs[len(evs)-1]
	if last.Event != string(jobs.Done) || last.Data.Data["tier"] != "mem" {
		t.Fatalf("terminal = %+v, want done from tier mem", last)
	}
	if runs.Load() != 1 {
		t.Errorf("experiment ran %d times, want 1 (job coalesced)", runs.Load())
	}
}

// TestSubmitValidation: POST /runs rejects exactly what the blocking
// GET rejects, with the same codes.
func TestSubmitValidation(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})
	cases := []struct {
		query string
		want  int
	}{
		{"id=NOPE", http.StatusNotFound},
		{"id=T1&scale=medium", http.StatusBadRequest},
		{"id=T1&scale=full", http.StatusForbidden}, // zero ScaleLimit = quick only
		{"id=T1&platform=not-a-platform", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/runs?"+tc.query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST /runs?%s = %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
	if runs.Load() != 0 {
		t.Errorf("rejected submissions ran %d experiments", runs.Load())
	}
}

// TestJobListAndStatus: GET /runs lists newest first; GET /runs/{id}
// serves one status; unknown IDs 404.
func TestJobListAndStatus(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})

	resp, body := doGet(t, ts.URL+"/runs", "", "")
	if resp.StatusCode != 200 || strings.TrimSpace(body) != "[]" {
		t.Errorf("empty listing: %d %q, want 200 []", resp.StatusCode, body)
	}

	sub := submitJob(t, ts.URL, "id=T1")
	drainSSE(t, ts.URL+sub.EventsURL, "")

	resp, body = doGet(t, ts.URL+"/runs/"+sub.Job, "", "")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /runs/%s: %d %s", sub.Job, resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != sub.Job || st.State != jobs.Done || st.Experiment != "T1" ||
		st.Scale != "quick" || st.Result["etag"] == "" {
		t.Errorf("status = %+v", st)
	}

	_, body = doGet(t, ts.URL+"/runs", "", "")
	var list []jobs.Status
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sub.Job {
		t.Errorf("listing = %+v", list)
	}

	if resp, _ := doGet(t, ts.URL+"/runs/nope", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestJobCancelViaDelete: DELETE /runs/{id} cancels a running job
// promptly; the SSE stream ends with the canceled terminal event even
// though the detached run never finishes.
func TestJobCancelViaDelete(t *testing.T) {
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	running := make(chan struct{})
	ts := newTestServer(t, Config{RunFunc: func(e core.Experiment, r core.Request) core.Result {
		close(running)
		<-block
		return core.Result{}
	}})
	sub := submitJob(t, ts.URL, "id=T1")
	<-running

	req, _ := http.NewRequest("DELETE", ts.URL+"/runs/"+sub.Job, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || st.State != jobs.Canceled {
		t.Fatalf("DELETE: %d state=%s, want 200 canceled", resp.StatusCode, st.State)
	}

	evs := drainSSE(t, ts.URL+sub.EventsURL, "")
	if last := evs[len(evs)-1]; last.Event != string(jobs.Canceled) {
		t.Errorf("last event = %+v, want canceled terminal", last)
	}
}

// TestJobMetricsSurface: the job counters and gauges land on
// GET /metrics under their documented names.
func TestJobMetricsSurface(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})
	sub := submitJob(t, ts.URL, "id=T1")
	drainSSE(t, ts.URL+sub.EventsURL, "")

	_, body := doGet(t, ts.URL+"/metrics", "", "")
	for _, want := range []string{
		`charhpc_jobs_total{state="submitted"} 1`,
		`charhpc_jobs_total{state="done"} 1`,
		`charhpc_jobs_total{state="failed"} 0`,
		`charhpc_jobs_total{state="canceled"} 0`,
		`charhpc_jobs_active 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// pending + running + done at minimum.
	if !strings.Contains(body, "charhpc_job_events_total 3") {
		t.Errorf("metrics missing charhpc_job_events_total 3:\n%s", grepMetrics(body, "job_events"))
	}
}

// grepMetrics filters an exposition body to lines containing substr,
// for failure messages.
func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestEventStreamAntiBufferingHeaders pins the SSE hardening
// contract: the events response must carry Cache-Control: no-cache
// and X-Accel-Buffering: no, so neither a shared cache nor a
// buffering reverse proxy (nginx, or this repo's own shard router)
// holds progress frames back from the client.
func TestEventStreamAntiBufferingHeaders(t *testing.T) {
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})
	sub := submitJob(t, ts.URL, "id=T1")

	resp, err := http.Get(ts.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != ctSSE {
		t.Errorf("Content-Type = %q, want %q", got, ctSSE)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", got)
	}
	if got := resp.Header.Get("X-Accel-Buffering"); got != "no" {
		t.Errorf("X-Accel-Buffering = %q, want no", got)
	}
}

// decimalID matches a Last-Event-ID that claims an event: the plain
// decimal form the stream's own event IDs take.
var decimalID = regexp.MustCompile(`^[0-9]+$`)

// FuzzLastEventID: whatever a client sends as Last-Event-ID, the event
// stream of a settled job ends, never sends an event at or before a
// claimed decimal ID, and replays the whole log when nothing is
// claimed.
func FuzzLastEventID(f *testing.F) {
	var runs atomic.Int32
	srv := New(Config{RunFunc: stubRun(&runs, 0)})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs?id=T1", nil))
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
		f.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	j, _ := srv.jobs.Get(sub.Job)
	if err := j.WaitSettled(context.Background()); err != nil {
		f.Fatal(err)
	}
	logged, _ := j.EventsSince(0)

	f.Fuzz(func(t *testing.T, lastEventID string) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodGet, sub.EventsURL, nil).WithContext(ctx)
		req.Header.Set("Last-Event-ID", lastEventID)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if ctx.Err() != nil {
			t.Fatalf("Last-Event-ID %q: the stream of a settled job did not end", lastEventID)
		}
		claimed, isClaim := new(big.Int).SetString(lastEventID, 10)
		isClaim = isClaim && decimalID.MatchString(lastEventID)
		sent := 0
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			id, ok := strings.CutPrefix(line, "id: ")
			if !ok {
				continue
			}
			sent++
			seq, _ := new(big.Int).SetString(id, 10)
			if isClaim && seq.Cmp(claimed) <= 0 {
				t.Errorf("Last-Event-ID %q: sent event %s", lastEventID, id)
			}
		}
		if !isClaim && sent != len(logged) {
			t.Errorf("Last-Event-ID %q claims nothing, but %d of %d events were sent", lastEventID, sent, len(logged))
		}
	})
}
