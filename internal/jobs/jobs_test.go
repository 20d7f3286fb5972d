package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wait bounds every blocking assertion so a broken transition fails
// the test instead of hanging it.
const wait = 5 * time.Second

func settled(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	if err := j.WaitSettled(ctx); err != nil {
		t.Fatalf("job %s never settled (state %s): %v", j.ID, j.State(), err)
	}
}

func TestDoneLifecycle(t *testing.T) {
	r := New(0, 4)
	j := r.Submit(Spec{Experiment: "T1", Scale: "quick"}, func(ctx context.Context, j *Job) Outcome {
		j.Emit(EventPhase, map[string]string{"name": "measure/ladder", "state": "start"})
		j.Emit(EventSection, map[string]string{"title": "ladder", "kind": "table"})
		return Outcome{Data: map[string]string{"etag": `"abc"`, "tier": "run"}}
	})
	settled(t, j)

	if got := j.State(); got != Done {
		t.Fatalf("state = %s, want done", got)
	}
	evs, _ := j.EventsSince(0)
	types := make([]string, len(evs))
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d — log must be dense and ordered", i, ev.Seq)
		}
		types[i] = ev.Type
	}
	want := []string{EventState, EventState, EventPhase, EventSection, string(Done)}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Errorf("event types = %v, want %v", types, want)
	}
	last := evs[len(evs)-1]
	if !last.Terminal() || last.Data["etag"] != `"abc"` {
		t.Errorf("terminal event = %+v, want done with etag", last)
	}

	st := j.Status()
	if st.State != Done || st.Events != len(evs) || st.Result["tier"] != "run" ||
		st.Started == nil || st.Finished == nil {
		t.Errorf("status = %+v", st)
	}
}

func TestFailedLifecycle(t *testing.T) {
	r := New(0, 4)
	j := r.Submit(Spec{Experiment: "T1"}, func(ctx context.Context, j *Job) Outcome {
		return Outcome{Err: errors.New("boom")}
	})
	settled(t, j)
	if got := j.State(); got != Failed {
		t.Fatalf("state = %s, want failed", got)
	}
	evs, _ := j.EventsSince(0)
	last := evs[len(evs)-1]
	if last.Type != string(Failed) || last.Data["error"] != "boom" {
		t.Errorf("terminal event = %+v, want failed with error", last)
	}
}

func TestPanickingRunFails(t *testing.T) {
	r := New(0, 4)
	j := r.Submit(Spec{Experiment: "T1"}, func(ctx context.Context, j *Job) Outcome {
		panic("kaboom")
	})
	settled(t, j)
	if got := j.State(); got != Failed {
		t.Fatalf("state after panic = %s, want failed", got)
	}
}

// TestCancelMidRun: canceling a running job via its request context
// transitions it promptly even though the work is still going, and
// events the detached work emits afterwards are discarded.
func TestCancelMidRun(t *testing.T) {
	running := make(chan struct{})
	release := make(chan struct{})
	straggled := make(chan struct{})
	r := New(0, 4)
	j := r.Submit(Spec{Experiment: "M1"}, func(ctx context.Context, j *Job) Outcome {
		close(running)
		<-release
		j.Emit(EventPhase, map[string]string{"name": "late"}) // after cancel: dropped
		close(straggled)
		return Outcome{Data: map[string]string{"etag": `"late"`}}
	})
	<-running
	if n := r.Counts().Running; n != 1 {
		t.Errorf("Counts().Running = %d mid-run, want 1", n)
	}
	j.Cancel()
	settled(t, j)
	if got := j.State(); got != Canceled {
		t.Fatalf("state = %s, want canceled", got)
	}
	if n := r.Counts().Running; n != 0 {
		t.Errorf("Counts().Running = %d after cancel, want 0", n)
	}
	close(release)
	<-straggled
	// The detached run's outcome and stragglers must not reach the log.
	time.Sleep(20 * time.Millisecond)
	evs, _ := j.EventsSince(0)
	last := evs[len(evs)-1]
	if last.Type != string(Canceled) {
		t.Fatalf("last event = %+v, want canceled terminal", last)
	}
	for _, ev := range evs {
		if ev.Type == EventPhase && ev.Data["name"] == "late" {
			t.Errorf("straggler event reached the log: %+v", ev)
		}
	}
	if st := j.Status(); st.Result["etag"] == `"late"` {
		t.Errorf("detached outcome overwrote the canceled result: %+v", st)
	}
}

// TestCanceledContextOutcome: a RunFunc that honors its context and
// returns ctx.Err() yields a canceled job, not a failed one.
func TestCanceledContextOutcome(t *testing.T) {
	running := make(chan struct{})
	r := New(0, 4)
	j := r.Submit(Spec{Experiment: "M1"}, func(ctx context.Context, j *Job) Outcome {
		close(running)
		<-ctx.Done()
		return Outcome{Err: ctx.Err()}
	})
	<-running
	j.cancel() // cancel only the context — the run itself reports it
	settled(t, j)
	if got := j.State(); got != Canceled {
		t.Fatalf("state = %s, want canceled", got)
	}
}

// TestHistoryRing: finished jobs beyond the history bound are evicted
// oldest-first; live jobs survive eviction.
func TestHistoryRing(t *testing.T) {
	r := New(0, 2)
	var finished []*Job
	for i := 0; i < 4; i++ {
		j := r.Submit(Spec{Experiment: fmt.Sprintf("T%d", i)}, func(ctx context.Context, j *Job) Outcome {
			return Outcome{}
		})
		settled(t, j)
		finished = append(finished, j)
	}
	// One more submission triggers the eviction scan over 4 finished.
	block := make(chan struct{})
	live := r.Submit(Spec{Experiment: "M1"}, func(ctx context.Context, j *Job) Outcome {
		<-block
		return Outcome{}
	})
	if _, ok := r.Get(finished[0].ID); ok {
		t.Error("oldest finished job survived eviction")
	}
	if _, ok := r.Get(finished[3].ID); !ok {
		t.Error("newest finished job was evicted")
	}
	if _, ok := r.Get(live.ID); !ok {
		t.Error("live job missing from the registry")
	}
	if got := len(r.Jobs()); got > 4 {
		t.Errorf("listing has %d jobs, want at most history+live", got)
	}
	close(block)
	settled(t, live)
}

// TestSubscribeReplayAndLive: a subscriber that arrives late replays
// the full log; one that arrives mid-run sees the tail live; resuming
// from a seq skips what was already consumed.
func TestSubscribeReplayAndLive(t *testing.T) {
	step := make(chan struct{})
	r := New(0, 4)
	j := r.Submit(Spec{Experiment: "M1"}, func(ctx context.Context, j *Job) Outcome {
		for i := 0; i < 3; i++ {
			<-step
			j.Emit(EventPhase, map[string]string{"name": fmt.Sprintf("p%d", i)})
		}
		return Outcome{}
	})

	// Live consumer: gathers everything as it lands.
	var got []Event
	seq := 0
	consume := func() {
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		defer cancel()
		for {
			evs, changed := j.EventsSince(seq)
			for _, ev := range evs {
				got = append(got, ev)
				seq = ev.Seq + 1
				if ev.Terminal() {
					return
				}
			}
			select {
			case <-changed:
			case <-ctx.Done():
				t.Fatalf("consumer timed out at seq %d", seq)
			}
		}
	}
	go func() {
		for i := 0; i < 3; i++ {
			step <- struct{}{}
		}
	}()
	consume()
	if !got[len(got)-1].Terminal() {
		t.Fatalf("live consumer missed the terminal event: %+v", got)
	}

	// Late replay: the whole log at once, terminal included.
	evs, _ := j.EventsSince(0)
	if len(evs) != len(got) {
		t.Errorf("replay has %d events, live consumer saw %d", len(evs), len(got))
	}
	// Resume from the middle.
	tail, _ := j.EventsSince(3)
	if len(tail) != len(evs)-3 || tail[0].Seq != 3 {
		t.Errorf("resume from seq 3: %+v", tail)
	}
}

// TestConcurrentEmitters: many goroutines appending to one job's log
// produce a dense, ordered log that ends with the terminal event, and
// nothing emitted after it lands (run with -race in CI).
func TestConcurrentEmitters(t *testing.T) {
	const emitters, each = 8, 50
	r := New(0, 4)
	j := r.Submit(Spec{Experiment: "M1"}, func(ctx context.Context, j *Job) Outcome {
		var wg sync.WaitGroup
		for e := 0; e < emitters; e++ {
			wg.Add(1)
			go func(e int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					j.Emit(EventPhase, map[string]string{"name": fmt.Sprintf("w%d/%d", e, i)})
				}
			}(e)
		}
		wg.Wait()
		return Outcome{}
	})
	settled(t, j)
	// Stragglers racing each other after the terminal event: all dropped.
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.Emit(EventPhase, map[string]string{"name": "late"})
		}()
	}
	wg.Wait()
	evs, _ := j.EventsSince(0)
	// pending + running + emitted + done
	if want := emitters*each + 3; len(evs) != want {
		t.Fatalf("log has %d events, want %d", len(evs), want)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("seq %d at index %d — log not dense", ev.Seq, i)
		}
		if ev.Terminal() != (i == len(evs)-1) {
			t.Fatalf("event %d %q: only the last event may be terminal", i, ev.Type)
		}
	}
}

// TestTerminalCountVisibleAtSettle: settle counts a terminal state in
// the critical section that logs its event, so once WaitSettled returns
// for a job, its done is already in Counts, whatever other jobs are
// settling at the same moment. A scrape right after a job's terminal
// SSE event relies on this. Run with -race in CI.
func TestTerminalCountVisibleAtSettle(t *testing.T) {
	const n = 16
	r := New(0, n)
	release := make(chan struct{})
	run := func(context.Context, *Job) Outcome { <-release; return Outcome{} }
	var seen atomic.Int64 // jobs whose WaitSettled has returned
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		j := r.Submit(Spec{Experiment: "T1", Scale: "quick"}, run)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			defer cancel()
			if err := j.WaitSettled(ctx); err != nil {
				t.Errorf("job %s never settled: %v", j.ID, err)
				return
			}
			if min, got := seen.Add(1), r.Counts().Done; got < min {
				t.Errorf("done = %d after %d jobs settled: a terminal event was seen before its count", got, min)
			}
		}()
	}
	close(release)
	wg.Wait()
	// pending + running + done per job.
	want := Counts{Submitted: n, Done: n, Events: 3 * n}
	if got := r.Counts(); got != want {
		t.Errorf("Counts() = %+v, want %+v", got, want)
	}
}

// TestSubmitAllocationBudget: a job costs its event log and two
// goroutines' worth of bookkeeping, not a preallocated queue — a
// per-job progress channel alone was 14 KiB.
func TestSubmitAllocationBudget(t *testing.T) {
	r := New(0, 4)
	ctx := context.Background()
	noop := func(context.Context, *Job) Outcome { return Outcome{} }
	const rounds = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := r.Submit(Spec{Experiment: "T1"}, noop).WaitSettled(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perJob := (after.TotalAlloc - before.TotalAlloc) / rounds; perJob >= 4<<10 {
		t.Errorf("Submit+settle of a no-op job allocates %d B, want < 4 KiB", perJob)
	}
}

// FuzzJobID: ParseID never panics, accepts exactly the strings with
// three dots, and gives back the spec of any ID Submit mints for a spec
// whose fields hold no dot.
func FuzzJobID(f *testing.F) {
	spec := Spec{Experiment: "T1", Scale: "quick"}
	j := New(0, 4).Submit(spec, func(context.Context, *Job) Outcome { return Outcome{} })
	if got, ok := ParseID(j.ID); !ok || got != spec {
		f.Fatalf("ParseID(%q) = %+v, %v; want %+v", j.ID, got, ok, spec)
	}
	f.Add("T1", "quick", "", j.ID)
	f.Add("F6", "full", "gige-8n", "0aedb8e7aebb846b")
	f.Add("M5", "quick", "custom-0123456789ab", "T1.quick.edr-16n.")
	f.Add("a.b", "", ".", "....")
	f.Fuzz(func(t *testing.T, experiment, scale, platform, id string) {
		got, ok := ParseID(id)
		if ok != (strings.Count(id, ".") == 3) {
			t.Fatalf("ParseID(%q) ok = %v with %d dots", id, ok, strings.Count(id, "."))
		}
		if ok && !strings.HasPrefix(id, got.Experiment+"."+got.Scale+"."+got.Platform+".") {
			t.Fatalf("ParseID(%q) = %+v, not the ID's own fields", id, got)
		}
		spec := Spec{Experiment: experiment, Scale: scale, Platform: platform}
		if strings.Contains(experiment+scale+platform, ".") {
			return
		}
		minted := newID(spec)
		if got, ok := ParseID(minted); !ok || got != spec {
			t.Fatalf("ParseID(%q) = %+v, %v; want %+v", minted, got, ok, spec)
		}
	})
}
