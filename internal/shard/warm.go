// Fan-out warm-up: the same registry × platform plan charhpcd's -warm
// builds for one daemon, partitioned across the pool by ring
// ownership — each shard is asked to fill exactly the keys the ring
// routes to it, so a completed warm-up leaves every shard's cache hot
// for precisely its own traffic. Run the shards with -warm=false and
// let the router drive the partitioned warm-up instead; double
// warming is harmless (the shard's single-flight coalesces) but
// wastes the pool's startup time.
package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/serve"
)

// Warm fills the pool's quick-scale caches for serve.WarmPlan(ids,
// platforms) — the plan serve.(*Server).Warm fills on one daemon. Each
// key is requested from its ring owner — with the usual failover order
// if the owner is down — by a pool of workers issuing the ordinary
// blocking GET, so a warmed key lands in exactly the cache that will
// serve it. Returns the number of keys warmed successfully.
func (rt *Router) Warm(ctx context.Context, ids []string, platforms []string, workers int) int {
	plan := serve.WarmPlan(ids, platforms)
	rt.warmRunning.Set(1)
	defer rt.warmRunning.Set(0)
	rt.warmPlanned.Set(int64(len(plan)))
	rt.warmCompleted.Set(0)

	var warmed atomic.Int64
	par.ForEach(len(plan), workers, func(i int) {
		if rt.warmOne(ctx, plan[i].Exp.ID, plan[i].Req.Platform) {
			warmed.Add(1)
		}
		rt.warmCompleted.Add(1)
	})
	return int(warmed.Load())
}

// warmOne fills one key on its owning shard by issuing the blocking
// GET through the usual candidate order (owner first, ring successors
// on failure). The response body is discarded — the point is the side
// effect on the shard's cache.
func (rt *Router) warmOne(ctx context.Context, id, platform string) bool {
	path := fmt.Sprintf("/experiments/%s?scale=quick", url.PathEscape(id))
	if platform != "" {
		path += "&platform=" + url.QueryEscape(platform)
	}
	resp, err := rt.send(ctx, "", http.MethodGet, path, nil, rt.candidates(Key(id, core.Quick.String(), platform))...)
	if err != nil {
		return false
	}
	if drain(resp) == http.StatusOK {
		return true
	}
	rt.log.Error("warm-up request rejected", "url", resp.Request.URL.String(), "id", id, "platform", platform, "status", resp.Status)
	return false
}
