// Layer benchmarks for the registry, in the shapes bench/layers.go
// times as jobs.submit_settle_us (one no-op job submitted and waited
// on) and jobs.fanout_ns_per_event (one job emitting 1000 events to 8
// followers on the EventsSince loop the SSE handler runs), so a harness
// delta can be chased with go test -bench.
package jobs

import (
	"context"
	"sync"
	"testing"
)

var benchSpec = Spec{Experiment: "F1", Scale: "quick"}

func BenchmarkSubmitSettle(b *testing.B) {
	ctx := context.Background()
	r := New(0, 0)
	noop := func(context.Context, *Job) Outcome { return Outcome{} }
	for i := 0; i < b.N; i++ {
		if err := r.Submit(benchSpec, noop).WaitSettled(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFanOut reports what the harness does: ns per event
// delivered to one follower, timing only the emit-and-drain.
func BenchmarkFanOut(b *testing.B) {
	const events, followers = 1000, 8
	r := New(0, 0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		release := make(chan struct{})
		j := r.Submit(benchSpec, func(_ context.Context, j *Job) Outcome {
			<-release
			for e := 0; e < events; e++ {
				j.Emit(EventPhase, nil)
			}
			return Outcome{}
		})
		var wg sync.WaitGroup
		for f := 0; f < followers; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for from := 0; ; {
					evs, changed := j.EventsSince(from)
					for _, ev := range evs {
						if ev.Terminal() {
							return
						}
						from = ev.Seq + 1
					}
					<-changed
				}
			}()
		}
		b.StartTimer()
		close(release)
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events*followers), "ns/event")
}
