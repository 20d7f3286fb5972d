// The async run surface: POST /runs submits an experiment execution
// as a job and returns 202 immediately; GET /runs/{job}/events streams
// its progress as Server-Sent Events while the run is still going.
//
// Event sources are the instrumentation the run already produces:
// core.Run's span tree emits a "phase" event as each probe phase or
// per-platform pass opens and closes, and report.Recorder's section
// tee emits a "section" event as each table/figure completes. The
// terminal event carries the result's strong ETags, so a client hands
// off to the (now cached) synchronous GET /experiments/{id} — async
// jobs fill the same single-flight memory/disk cache path as blocking
// requests, so a job and a GET for the same (id, scale, platform)
// coalesce into one execution, and every job on the key streams that
// execution's phase and section events.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/report"
)

// ctSSE is the Server-Sent Events content type.
const ctSSE = "text/event-stream"

// MaxRunBody bounds a POST /runs request body. The run parameters
// travel in the query string or a small form body; anything larger is
// abuse. Both tiers read at most this much and answer a larger body
// with 413 body_too_large.
const MaxRunBody = 64 << 10

// SubmitResponse is the 202 body for POST /runs, which the CLI's
// -submit mode decodes.
type SubmitResponse struct {
	Job       string `json:"job"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// handleSubmitRun validates the request through the same
// parseRunRequest as the blocking GET — same checks, same order, same
// envelope codes; nothing is accepted that could never run — then
// submits the job and answers 202 with its ID and URLs. The body is
// read whole under MaxRunBody before the form is parsed from it, so no
// part of it can spill to disk.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRunBody))
	if err != nil {
		WriteBodyError(w, r, "run request", err)
		return
	}
	form, err := RunParams(r, body)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("parsing request body: %v", err), "")
		return
	}
	e, req, ok := s.parseRunRequest(w, r, form.Get("id"), form.Get("scale"), form.Get("platform"))
	if !ok {
		return
	}

	j := s.jobs.Submit(
		jobs.Spec{Experiment: e.ID, Scale: req.Scale.String(), Platform: req.Platform},
		func(ctx context.Context, j *jobs.Job) jobs.Outcome {
			return s.runJob(ctx, j, e, req)
		})

	w.Header().Set("Location", "/runs/"+j.ID)
	WriteJSON(w, http.StatusAccepted, SubmitResponse{
		Job:       j.ID,
		State:     string(j.State()),
		StatusURL: "/runs/" + j.ID,
		EventsURL: "/runs/" + j.ID + "/events",
	})
}

// RunParams parses a POST /runs request's parameters from its query
// and its body, already read whole under MaxRunBody, in r.FormValue's
// precedence: an urlencoded body's values, then the query's, then a
// multipart body's. Both tiers call it — the shard to run the job, the
// router to key it — so a job is routed by the experiment it runs. r
// itself is left as it was. On an error, the values that parsed come
// back with it.
func RunParams(r *http.Request, body []byte) (url.Values, error) {
	c := r.WithContext(r.Context())
	c.Body = io.NopCloser(bytes.NewReader(body))
	c.Form, c.PostForm, c.MultipartForm = nil, nil, nil
	// ParseMultipartForm drops ParseForm's error on a body that is not
	// multipart, so the urlencoded parse runs first. Under MaxRunBody
	// no part spills to a temporary file.
	err := c.ParseForm()
	if err == nil {
		if err = c.ParseMultipartForm(MaxRunBody); errors.Is(err, http.ErrNotMultipart) {
			err = nil
		}
	}
	return c.Form, err
}

// runJob executes one job's experiment through Server.result, the
// call a blocking GET makes, so the job leaves the cache exactly as
// the GET would and hands off byte-identical ETags. The job follows
// the fill's phase/section events whether it owns the fill or waits on
// someone else's (then its tier is "mem"); a key already filled yields
// just the terminal event.
//
// Cancellation is checked at the edges: the shared fill itself is
// never abandoned (another waiter may need it), so a cancel mid-run
// detaches the job while the run completes into the cache.
func (s *Server) runJob(ctx context.Context, j *jobs.Job, e core.Experiment, req core.Request) jobs.Outcome {
	if err := ctx.Err(); err != nil {
		return jobs.Outcome{Err: err}
	}
	rs, err := s.result(e, req, j)
	if err != nil {
		return jobs.Outcome{Err: err}
	}
	if err := ctx.Err(); err != nil {
		// Canceled mid-run: the result is cached for the next caller,
		// but this job ends canceled, not done.
		return jobs.Outcome{Err: err}
	}
	url := "/experiments/" + e.ID + "?scale=" + req.Scale.String()
	if req.Platform != "" {
		url += "&platform=" + req.Platform
	}
	return jobs.Outcome{Data: map[string]string{
		"etag":            rs.reps[ctText].etag,
		"etag_csv":        rs.reps[ctCSV].etag,
		"etag_json":       rs.reps[ctJSON].etag,
		"elapsed_seconds": fmt.Sprintf("%.6f", rs.elapsed.Seconds()),
		"tier":            rs.tier,
		"url":             url,
	}}
}

// handleJobList serves the status of every retained job, newest
// first, as a JSON array.
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	list := s.jobs.Jobs()
	if list == nil {
		list = []jobs.Status{}
	}
	WriteJSON(w, http.StatusOK, list)
}

// jobFor resolves the {job} path value, answering the 404 itself.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.jobs.Get(r.PathValue("job"))
	if !ok {
		WriteError(w, r, http.StatusNotFound, codeUnknownJob,
			fmt.Sprintf("unknown job %q", r.PathValue("job")),
			"GET /runs lists the retained jobs")
	}
	return j, ok
}

// handleJobGet serves one job's status: state, timing, platform, and
// — once terminal — the result data (ETags, cache tier).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, j.Status())
}

// handleJobCancel cancels a job (prompt in any state; see
// jobs.Job.Cancel) and returns its settled status.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.Cancel()
	WriteJSON(w, http.StatusOK, j.Status())
}

// handleJobEvents streams a job's event log as Server-Sent Events:
// every logged event is replayed first (so a subscriber arriving
// after completion still gets the full, ordered stream), then live
// events as they land, ending with the terminal event. The event seq
// is the SSE event ID; a reconnecting client resumes where it left
// off via the standard Last-Event-ID header. A settled job's stream
// ends once its log is exhausted, even when the claimed ID is past the
// terminal event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, r, http.StatusInternalServerError, codeInternal,
			"streaming unsupported by this connection", "")
		return
	}
	from := resumeFrom(r.Header.Get("Last-Event-ID"))
	w.Header().Set("Content-Type", ctSSE)
	w.Header().Set("Cache-Control", "no-cache")
	// Tell buffering intermediaries (nginx and compatibles) to pass
	// each event through as it is flushed — a buffered progress stream
	// defeats its purpose. The shard router honors the same contract:
	// its httputil.ReverseProxy flushes an event stream after every
	// write.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		// Read the state before the log: a job settled by then has its
		// terminal event in the log, so an empty tail means the client
		// already has every event there will be.
		settled := j.State().Terminal()
		evs, changed := j.EventsSince(from)
		for _, ev := range evs {
			from = ev.Seq + 1
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b)
			if ev.Terminal() {
				fl.Flush()
				return
			}
		}
		fl.Flush()
		if settled {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// resumeFrom returns the first event seq to send for a Last-Event-ID
// header: one past the claimed ID. A value that is not a plain decimal
// (absent, negative, garbage) claims nothing; one too large for an int
// claims every event a log can hold.
func resumeFrom(lastEventID string) int {
	if lastEventID == "" || strings.Trim(lastEventID, "0123456789") != "" {
		return 0
	}
	// All digits: ParseUint can only fail on range.
	n, err := strconv.ParseUint(lastEventID, 10, 64)
	if err != nil || n >= math.MaxInt {
		return math.MaxInt
	}
	return int(n) + 1
}

// hooks builds the RunHooks that turn one fill's instrumentation into
// the entry's progress events: span transitions become "phase" events,
// completed report sections become "section" events. An owner job's ID
// is stamped on the run's trace, so /debug/traces ties back to
// /runs/{id}.
func (e *entry) hooks(owner *jobs.Job) core.RunHooks {
	h := core.RunHooks{
		Section: func(sec report.Section) {
			e.emit(jobs.EventSection, map[string]string{
				"title": sec.Title,
				"kind":  sec.Kind,
				"rows":  strconv.Itoa(len(sec.Rows)),
			})
		},
		SpanStarted: func(sp *obs.Span) {
			e.emit(jobs.EventPhase, map[string]string{
				"name": sp.Name, "state": "start",
			})
		},
		SpanEnded: func(sp *obs.Span) {
			e.emit(jobs.EventPhase, map[string]string{
				"name":            sp.Name,
				"state":           "end",
				"elapsed_seconds": fmt.Sprintf("%.6f", sp.Duration().Seconds()),
			})
		},
	}
	if owner != nil {
		h.SpanAttrs = map[string]string{"job": owner.ID}
	}
	return h
}
