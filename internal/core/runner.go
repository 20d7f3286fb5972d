// The execution layer of the registry: run experiments off-terminal
// into Recorders, serially or on a worker pool. Experiments already
// write to whatever writer they are handed and share no mutable
// state, so independent runs compose freely across goroutines; the
// pool here is what cmd/charhpc's -j flag drives. The results service
// uses neither: it runs each cold key on the request that asks for it.
package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/report"
)

// Result is one experiment execution captured off-terminal: the
// Recorder holds the byte-exact text a serial run would have produced
// plus the structured sections behind it, so the output can be
// re-rendered (text, CSV, JSON) without re-running.
type Result struct {
	Experiment Experiment
	Req        Request
	Rec        *report.Recorder
	Elapsed    time.Duration
	Err        error
}

// Run executes one experiment against a fresh Recorder and times it.
// An invalid platform for this experiment fails before anything runs;
// a failing experiment still returns whatever output it produced
// before the error.
//
// Every run opens an obs.Span attached to the Recorder (see
// report.Recorder.Span); experiments hang child spans off it per
// platform and per probe phase via the phase helper, so the finished
// Result carries a queryable timing tree without perturbing a single
// output byte — the span lives beside the report body, never in it.
func Run(e Experiment, r Request) Result {
	return RunWithHooks(e, r, RunHooks{})
}

// RunHooks observes one execution live, while the experiment is still
// producing output — the feed behind the async job API's progress
// stream. All fields are optional; the zero value makes RunWithHooks
// identical to Run. Callbacks fire on the goroutine driving the run
// (spans of concurrent children may fire from theirs) and must not
// write to the experiment's output.
type RunHooks struct {
	// SpanAttrs are stamped on the run's root span in addition to the
	// standard identity attrs — e.g. the owning job ID, so a run's
	// trace in /debug/traces can be tied back to its job.
	SpanAttrs map[string]string
	// Section fires as each table/figure lands on the Recorder.
	Section func(report.Section)
	// SpanStarted/SpanEnded observe the run's span tree as it grows:
	// one Started per child span (per-platform passes, probe phases),
	// one Ended per span including the root.
	SpanStarted func(*obs.Span)
	SpanEnded   func(*obs.Span)
}

// RunWithHooks is Run with live observation: sections and span
// transitions are reported through h as they happen. The Result —
// output bytes, structured sections, ETag-relevant content — is
// byte-identical to Run's; hooks only watch.
func RunWithHooks(e Experiment, r Request, h RunHooks) Result {
	rec := report.NewRecorder()
	if err := e.CheckPlatform(r.Platform); err != nil {
		return Result{Experiment: e, Req: r, Rec: rec, Err: err}
	}
	sp := obs.StartSpan(e.ID)
	sp.SetAttr("id", e.ID)
	sp.SetAttr("kind", e.Kind)
	sp.SetAttr("scale", r.Scale.String())
	if r.Platform != "" {
		sp.SetAttr("platform", r.Platform)
	}
	for k, v := range h.SpanAttrs {
		sp.SetAttr(k, v)
	}
	sp.Observe(h.SpanStarted, h.SpanEnded)
	if h.Section != nil {
		rec.SetSectionHook(h.Section)
	}
	rec.SetSpan(sp)
	t0 := time.Now()
	err := e.Run(rec, r)
	sp.End()
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	return Result{Experiment: e, Req: r, Rec: rec, Elapsed: time.Since(t0), Err: err}
}

// spanCarrier is the writer capability the tracing helpers probe for;
// report.Recorder implements it.
type spanCarrier interface{ Span() *obs.Span }

// spanOf returns the active run span when w carries one, else nil.
// All obs.Span methods are nil-safe, so callers never need to branch.
func spanOf(w io.Writer) *obs.Span {
	if c, ok := w.(spanCarrier); ok {
		return c.Span()
	}
	return nil
}

// phase opens a child span named name under w's run span and returns
// its closer — the one-liner experiments use around probe phases and
// per-platform model passes:
//
//	done := phase(w, "measure/ladder")
//	...
//	done()
//
// On a plain writer (stdout, tests) both the span and the
// closer are no-ops, so instrumented experiments behave identically
// with or without tracing.
func phase(w io.Writer, name string) func() {
	sp := spanOf(w).StartChild(name)
	return sp.End
}

// onRank0 runs f on every rank of a p-rank world under cfg and returns
// what rank 0's call returned — the one number (or row) an experiment
// reads off a run — with the run's error.
func onRank0[T any](p int, cfg mp.Config, f func(*mp.Comm) (T, error)) (T, error) {
	var v T
	err := mp.Run(p, cfg, func(c *mp.Comm) error {
		x, err := f(c)
		if c.Rank() == 0 {
			v = x
		}
		return err
	})
	return v, err
}

// resolve maps experiment IDs to registry entries, failing on the
// first unknown ID — or, with an explicit platform, the first ID the
// platform is incompatible with — so nothing runs on a typo.
func resolve(ids []string, r Request) ([]Experiment, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := Get(id)
		if !ok {
			return nil, fmt.Errorf("core: unknown experiment %q", id)
		}
		if err := e.CheckPlatform(r.Platform); err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

// RunParallel executes the named experiments on a pool of `workers`
// goroutines and returns their results in the order of ids. Per-run
// errors are carried in each Result; the returned error is non-nil
// only for an unknown ID or an incompatible platform, in which case
// nothing runs.
func RunParallel(ids []string, r Request, workers int) ([]Result, error) {
	exps, err := resolve(ids, r)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(exps))
	par.ForEach(len(exps), workers, func(i int) { out[i] = Run(exps[i], r) })
	return out, nil
}

// RunParallelFunc is the streaming form of RunParallel: fn is invoked
// from worker goroutines as each experiment completes, in completion
// order. It returns only after every run has finished (and its fn
// call returned), or immediately with an error on an unknown ID or
// incompatible platform.
func RunParallelFunc(ids []string, r Request, workers int, fn func(Result)) error {
	exps, err := resolve(ids, r)
	if err != nil {
		return err
	}
	par.ForEach(len(exps), workers, func(i int) { fn(Run(exps[i], r)) })
	return nil
}
