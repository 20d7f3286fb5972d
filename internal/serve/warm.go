// Warm-up: the one plan — compatible experiments × platforms at quick
// scale — that charhpcd -warm fills in its own cache and
// charhpc-router -warm partitions across its shards, plus the
// -warm-platforms flag both binaries take.
package serve

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/par"
)

// WarmTask is one key of a warm-up plan.
type WarmTask struct {
	Exp core.Experiment
	Req core.Request
}

// WarmPlan expands the given experiment IDs (nil means every
// registered experiment) across the given platform axis (nil means the
// default platform set only; "" in the list is the default set) into
// quick-scale tasks, platform by platform. Unknown IDs and
// incompatible (experiment, platform) pairs are skipped, so planning
// the whole registry across explicit presets never errors.
func WarmPlan(ids, platforms []string) []WarmTask {
	if ids == nil {
		for _, e := range core.All() {
			ids = append(ids, e.ID)
		}
	}
	if platforms == nil {
		platforms = []string{""}
	}
	var plan []WarmTask
	for _, platform := range platforms {
		for _, id := range ids {
			if e, ok := core.Get(id); ok && e.CheckPlatform(platform) == nil {
				plan = append(plan, WarmTask{e, core.Request{Scale: core.Quick, Platform: platform}})
			}
		}
	}
	return plan
}

// ParseWarmPlatforms resolves a -warm-platforms value into WarmPlan's
// platform axis: comma-separated, "default" is each experiment's
// canonical set, any other name must be a preset or a registered
// custom. Call it after custom platforms are loaded.
func ParseWarmPlatforms(list string) ([]string, error) {
	var platforms []string
	for _, p := range strings.Split(list, ",") {
		switch p = strings.TrimSpace(p); p {
		case "":
		case "default":
			platforms = append(platforms, "")
		default:
			if _, ok := cluster.Lookup(p); !ok {
				return nil, fmt.Errorf("unknown warm-up platform %q (platforms: %v)", p,
					append(cluster.Names(), cluster.CustomNames()...))
			}
			platforms = append(platforms, p)
		}
	}
	return platforms, nil
}

// Warm fills the cache for WarmPlan(ids, platforms) on `workers`
// goroutines, each making the Server.result call a request makes: warm-up
// and traffic share one fill, and a key runs once whoever asks first.
// Keys already cached or in flight are left out; a request for a key
// still queued behind the pool fills it itself and the worker later
// finds it present. Entries with a valid disk-store generation load
// without running.
//
// Canceling ctx stops the warm-up promptly: keys not yet started are
// skipped and only in-flight runs are waited out. Returns the number
// of experiments it actually executed — disk loads, keys traffic got
// to first and canceled keys don't count.
func (s *Server) Warm(ctx context.Context, ids []string, platforms []string, workers int) int {
	var cold []WarmTask
	for _, t := range WarmPlan(ids, platforms) {
		if !s.cache.has(key{t.Exp.ID, t.Req}) {
			cold = append(cold, t)
		}
	}
	// Progress gauges: planned counts every cold key, completed counts
	// each as it resolves — loaded, executed, or canceled — so an
	// operator watching /metrics sees warm-up advance and finish
	// (warmup_running drops to 0).
	s.m.warmRunning.Set(1)
	defer s.m.warmRunning.Set(0)
	s.m.warmPlanned.Add(int64(len(cold)))

	var ran atomic.Int64
	par.ForEach(len(cold), workers, func(i int) {
		t := cold[i]
		if ctx.Err() == nil {
			if rs, _ := s.result(t.Exp, t.Req, nil); rs.tier == "run" {
				ran.Add(1)
			}
		}
		s.m.warmCompleted.Add(1)
	})
	return int(ran.Load())
}
