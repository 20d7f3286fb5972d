// Command charhpc-router scales the results service horizontally: it
// fronts a pool of charhpcd workers behind the single-daemon API,
// consistent-hashing the platform-qualified cache key (id, scale,
// platform) so each shard's memory and disk cache stays hot for its
// own slice of the key space. Clients — charhpc included — point
// -addr at the router and cannot tell it from one daemon: blocking
// GETs, async jobs with their SSE event streams, and the /platforms
// resource all proxy through byte-for-byte (custom-platform
// registrations fan out to every shard). A job's ID names its cache
// key, so its status, cancel and event requests go to that key's
// shards in ring order, and any router replica serves any job.
//
// Liveness is learned from traffic, with no probe loop: a shard whose
// hop fails at the transport is tried last for a window (2 s, doubling
// to 30 s), and GET /healthz probes every shard when asked. A request
// whose shard is unreachable re-routes to the next live ring successor
// — the same shard its keys would remap to if the owner left the pool,
// so failover traffic lands where the cache will be rebuilt anyway.
//
// Usage:
//
//	charhpc-router -shards http://10.0.0.1:8080,http://10.0.0.2:8080
//	charhpc-router -shards host1:8080,host2:8080 -addr :8079
//
// A cold key fills on the shard that owns it, on its first request.
// Every shard gets shard.DefaultVNodes points on the ring, so router
// replicas over one pool route alike. -warm is accepted only as
// -warm=false, for command lines written when the router had a
// startup warm-up; -warm=true exits 2.
//
// Observability: GET /healthz probes the shards and aggregates their
// liveness on one line; GET /metrics exposes the router's own instruments
// (charhpc_router_shard_up, charhpc_router_routed_total,
// charhpc_router_failovers_total, charhpc_router_proxy_seconds) —
// scrape the shards' /metrics alongside for the cache tiers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8079", "listen address")
	shardsFlag := flag.String("shards", "", "comma-separated charhpcd base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
	warm := flag.Bool("warm", false, "removed: accepted only as false (a cold key fills on its owning shard's first request)")
	logFormat := flag.String("log-format", "text", "log line format: text or json")
	flag.Parse()
	if *warm {
		fmt.Fprintln(os.Stderr, "charhpc-router: -warm was removed: a cold key fills on its owning shard's first request (pass -warm=false or nothing)")
		os.Exit(2)
	}

	logger, err := serve.DaemonLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "charhpc-router: %v\n", err)
		os.Exit(2)
	}

	var shards []string
	for _, s := range strings.Split(*shardsFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "charhpc-router: -shards is required (comma-separated charhpcd base URLs)")
		os.Exit(2)
	}

	rt, err := shard.New(shard.Config{Shards: shards, AccessLog: logger})
	if err != nil {
		fmt.Fprintf(os.Stderr, "charhpc-router: %v\n", err)
		os.Exit(2)
	}
	defer rt.Close()

	err = serve.RunDaemon(logger, *addr, rt,
		func() { logger.Info("routing", "addr", *addr, "shards", strings.Join(shards, ",")) },
		func() []any {
			st := rt.Stats()
			return []any{"shards_up", st.ShardsUp, "shards_total", st.ShardsTotal,
				"failovers", st.Failovers}
		})
	if err != nil {
		os.Exit(1)
	}
}
