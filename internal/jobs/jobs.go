// Package jobs runs long work asynchronously and makes it observable
// while it happens: a registry of jobs, a bounded history of finished
// jobs, and — per job — an append-only event log that the work's own
// goroutines append to under the job's lock. Consumers read the log,
// never a queue, so an emitter never blocks on a slow consumer.
//
// The serving layer (internal/serve) drives this for experiment runs:
// POST /runs submits a job, GET /runs/{id}/events streams its log as
// Server-Sent Events. The package itself knows nothing about HTTP or
// experiments; the work is an opaque RunFunc and the events are typed
// key/value records.
//
// Lifecycle: a submitted job is pending until its goroutine starts —
// nothing queues it — running while its RunFunc executes, and ends
// done, failed, or canceled. Cancel is prompt in every state — a
// pending job never runs, and a running job transitions immediately
// while its work is left to finish in the background (detached); late
// events and the late outcome are discarded.
//
// The registry keeps its own counts (submissions, each terminal state,
// events appended, jobs running) and Counts reads them; serve exposes
// them at scrape. A terminal state is counted in the critical section
// that logs its event, so a reader that has seen the event sees the
// count.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// State is a job's lifecycle position.
type State string

// The five job states. Terminal events carry their state as the event
// type, so the stream's last event is self-describing.
const (
	Pending  State = "pending"  // submitted, its goroutine not yet started
	Running  State = "running"  // RunFunc executing
	Done     State = "done"     // finished successfully
	Failed   State = "failed"   // finished with an error
	Canceled State = "canceled" // canceled before or during execution
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Event types beyond the terminal states (whose type is the state
// itself: "done", "failed", "canceled").
const (
	EventState   = "state"   // lifecycle transition; data: state
	EventPhase   = "phase"   // a run phase opened or closed; data: name, state, elapsed_seconds
	EventSection = "section" // one report section completed; data: title, kind, rows
)

// Event is one progress record in a job's log. Seq is dense and
// strictly increasing per job (the SSE layer uses it as the event ID,
// so clients resume with Last-Event-ID).
type Event struct {
	Seq  int               `json:"seq"`
	Time time.Time         `json:"time"`
	Type string            `json:"type"`
	Data map[string]string `json:"data,omitempty"`
}

// Terminal reports whether this is the job's final event.
func (e Event) Terminal() bool { return State(e.Type).Terminal() }

// Spec identifies what a job runs — echoed in statuses and listings.
type Spec struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Platform   string `json:"platform,omitempty"`
}

// Outcome is what a RunFunc hands back: an error (a context.Canceled
// cause marks the job canceled rather than failed) or a data map
// merged into the terminal event — the result ETag, elapsed time, and
// cache tier, in the serving layer's case.
type Outcome struct {
	Err  error
	Data map[string]string
}

// RunFunc executes one job's work. ctx is canceled by Job.Cancel (and
// nothing else); progress goes through j.Emit. The returned Outcome
// becomes the terminal event unless the job was already canceled.
type RunFunc func(ctx context.Context, j *Job) Outcome

// Counts is a snapshot of a registry's counts. Running is live; the
// rest are lifetime totals that never decrease, whatever the history
// bound evicts.
type Counts struct {
	Submitted int64 // jobs accepted
	Done      int64 // jobs settled in each terminal state
	Failed    int64
	Canceled  int64
	Events    int64 // progress events appended across all jobs
	Running   int64 // jobs executing their RunFunc now
}

// DefaultHistory is the finished-job bound when New is given zero. It
// is sized so a submitter polling under load is not answered
// unknown_job for a job that finished milliseconds ago; a finished job
// retains only its event log.
const DefaultHistory = 1024

// Registry owns the job table: every submitted job runs at once on its
// own goroutine, and a bounded ring of finished jobs is kept for
// inspection. Safe for concurrent use.
type Registry struct {
	history int

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order; the eviction scan walks it oldest-first

	finished atomic.Int64 // terminal jobs in the table; settle counts up, eviction down
	running  atomic.Int64 // jobs in state running; toRunning counts up, settle down

	submitted, done, failed, canceled, events atomic.Int64 // lifetime totals behind Counts
}

// New builds a registry retaining the last `history` finished jobs
// (zero means DefaultHistory). Nothing reads the first parameter: jobs
// do not queue, so there is no worker count to set; it stays so that
// callers which pass one keep compiling.
func New(_, history int) *Registry {
	if history <= 0 {
		history = DefaultHistory
	}
	return &Registry{history: history, jobs: map[string]*Job{}}
}

// Submit registers a new pending job and starts run on its own
// goroutine. It returns immediately; the job's event log starts with a
// "state: pending" event, so even an instant subscriber sees a
// non-empty stream. The job's ID names its spec (see ParseID).
func (r *Registry) Submit(spec Spec, run RunFunc) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:      newID(spec),
		Spec:    spec,
		Created: time.Now(),
		reg:     r,
		cancel:  cancel,
		state:   Pending,
		notify:  make(chan struct{}),
	}
	j.Emit(EventState, map[string]string{"state": string(Pending)})

	r.mu.Lock()
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	r.evictLocked()
	r.mu.Unlock()
	r.submitted.Add(1)

	go r.drive(ctx, j, run)
	return j
}

// newID mints a job ID that names its spec:
// <experiment>.<scale>.<platform>.<random>, e.g. T1.quick..0aedb8e7aebb846b
// (the default platform is empty). Experiment IDs, scales, preset names
// and custom-<hex> names never contain a ".", so ParseID recovers the
// spec from the ID alone.
func newID(spec Spec) string {
	return spec.Experiment + "." + spec.Scale + "." + spec.Platform + "." + obs.NewRequestID()
}

// ParseID returns the spec a job ID names, and false for a string
// Submit could not have minted (an ID from before IDs named their
// spec, say). The shard router routes a job's requests by it, so it
// keeps no table of where jobs went.
func ParseID(id string) (Spec, bool) {
	f := strings.SplitN(id, ".", 5)
	if len(f) != 4 {
		return Spec{}, false
	}
	return Spec{Experiment: f[0], Scale: f[1], Platform: f[2]}, true
}

// drive runs the job and settles its terminal state. It is the only
// writer of the pending→running transition; Cancel can win any race by
// settling terminal first.
func (r *Registry) drive(ctx context.Context, j *Job, run RunFunc) {
	if !j.toRunning() {
		return // canceled before it started
	}
	out := runSafe(ctx, j, run)
	switch {
	case out.Err != nil && errors.Is(out.Err, context.Canceled):
		j.settle(Canceled, out.Data)
	case out.Err != nil:
		data := out.Data
		if data == nil {
			data = map[string]string{}
		}
		data["error"] = out.Err.Error()
		j.settle(Failed, data)
	default:
		j.settle(Done, out.Data)
	}
}

// runSafe contains a panicking RunFunc: the job fails, the process
// lives.
func runSafe(ctx context.Context, j *Job, run RunFunc) (out Outcome) {
	defer func() {
		if rec := recover(); rec != nil {
			out = Outcome{Err: fmt.Errorf("job panicked: %v", rec)}
		}
	}()
	return run(ctx, j)
}

// Get returns the job with the given ID.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns a status snapshot of every retained job, newest first.
func (r *Registry) Jobs() []Status {
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		jobs = append(jobs, r.jobs[r.order[i]])
	}
	r.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Counts returns the registry's counts, each read atomically — what
// serve exposes on /metrics and /healthz.
func (r *Registry) Counts() Counts {
	return Counts{
		Submitted: r.submitted.Load(),
		Done:      r.done.Load(),
		Failed:    r.failed.Load(),
		Canceled:  r.canceled.Load(),
		Events:    r.events.Load(),
		Running:   r.running.Load(),
	}
}

// evictLocked trims the finished-job history to the ring bound,
// oldest first. Live (pending/running) jobs are never evicted, so the
// table holds at most history + active entries. The walk stops at the
// last job it has to remove — in steady state the oldest entry — so a
// Submit does not pay for the size of the history. Caller holds r.mu.
func (r *Registry) evictLocked() {
	excess := int(r.finished.Load()) - r.history
	if excess <= 0 {
		return
	}
	keep := r.order[:0]
	i := 0
	for ; i < len(r.order) && excess > 0; i++ {
		id := r.order[i]
		if r.jobs[id].State().Terminal() {
			delete(r.jobs, id)
			r.finished.Add(-1)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	r.order = append(keep, r.order[i:]...)
}

// Job is one asynchronous execution: identity, lifecycle state, and
// an append-only event log. All methods are safe for concurrent use.
type Job struct {
	ID      string
	Spec    Spec
	Created time.Time

	reg    *Registry
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	result   map[string]string // terminal event data (etag, tier, ...)
	events   []Event
	notify   chan struct{} // closed and replaced on every append (broadcast)
}

// Emit posts one progress event from the job's work. Events are
// dropped once the job is terminal (a canceled job's detached run
// keeps computing; its stragglers go nowhere).
func (j *Job) Emit(typ string, data map[string]string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(Event{Type: typ, Data: data})
}

// appendLocked stamps ev with the next sequence number and the time,
// appends it, and wakes subscribers. Nothing lands after the terminal
// event: a settled job's stragglers are dropped. Caller holds j.mu.
func (j *Job) appendLocked(ev Event) {
	if n := len(j.events); n > 0 && j.events[n-1].Terminal() {
		return
	}
	ev.Seq = len(j.events)
	ev.Time = time.Now()
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.reg.events.Add(1)
}

// toRunning moves pending→running and logs the transition in the same
// critical section. False when the job settled (canceled) first.
func (j *Job) toRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Pending {
		return false
	}
	j.state = Running
	j.reg.running.Add(1)
	j.started = time.Now()
	j.appendLocked(Event{Type: EventState, Data: map[string]string{"state": string(Running)}})
	return true
}

// settle moves the job to a terminal state exactly once: the first
// caller wins (Cancel racing a finishing run, or vice versa) and logs
// the terminal event and counts the state in the same critical
// section, so a reader never sees a terminal state without its event,
// or its event without its count. Later calls no-op.
func (j *Job) settle(st State, data map[string]string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	if j.state == Running {
		j.reg.running.Add(-1)
	}
	j.state = st
	j.finished = time.Now()
	j.result = data
	j.appendLocked(Event{Type: string(st), Data: data})
	j.reg.finished.Add(1)
	switch st {
	case Done:
		j.reg.done.Add(1)
	case Failed:
		j.reg.failed.Add(1)
	case Canceled:
		j.reg.canceled.Add(1)
	}
}

// Cancel ends the job promptly in any state: a pending job never
// runs, a running job transitions to canceled now and its work is
// detached (the context handed to RunFunc is canceled; a run that
// ignores it finishes into the void). Idempotent.
func (j *Job) Cancel() {
	j.cancel()
	j.settle(Canceled, map[string]string{"reason": "canceled by request"})
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// EventsSince returns a copy of the log entries with Seq >= n, plus a
// channel closed on the next append — the subscription primitive. A
// consumer loops: replay the slice, then wait on the channel (or its
// own cancellation). No events are ever dropped for a reader, however
// slow: the log is the source, not a queue.
func (j *Job) EventsSince(n int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if n < 0 {
		n = 0
	}
	if n < len(j.events) {
		evs = append(evs, j.events[n:]...)
	}
	return evs, j.notify
}

// WaitSettled blocks until the job's terminal event is in the log (so
// subscribers are guaranteed to observe it) or the context ends.
func (j *Job) WaitSettled(ctx context.Context) error {
	n := 0
	for {
		evs, changed := j.EventsSince(n)
		for _, ev := range evs {
			if ev.Terminal() {
				return nil
			}
			n = ev.Seq + 1
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Status is the JSON-ready snapshot of one job.
type Status struct {
	ID             string            `json:"id"`
	Experiment     string            `json:"experiment"`
	Scale          string            `json:"scale"`
	Platform       string            `json:"platform,omitempty"`
	State          State             `json:"state"`
	Created        time.Time         `json:"created"`
	Started        *time.Time        `json:"started,omitempty"`
	Finished       *time.Time        `json:"finished,omitempty"`
	ElapsedSeconds float64           `json:"elapsed_seconds,omitempty"` // running→now or started→finished
	Events         int               `json:"events"`
	Result         map[string]string `json:"result,omitempty"` // terminal event data: etag, tier, ...
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.ID,
		Experiment: j.Spec.Experiment,
		Scale:      j.Spec.Scale,
		Platform:   j.Spec.Platform,
		State:      j.state,
		Created:    j.Created,
		Events:     len(j.events),
		Result:     j.result,
	}
	end := time.Now()
	if !j.finished.IsZero() {
		end = j.finished
		st.Finished = &end
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		st.ElapsedSeconds = end.Sub(t).Seconds()
	}
	return st
}
