// Command charhpcd serves the characterization's experiment registry
// over HTTP: cached, content-negotiated results with ETags (see
// internal/serve). A cold key fills on its first request, once however
// many clients ask for it. With -cache-dir the results cache persists
// across restarts: filled entries are written through to disk, a
// restart serves them from disk without re-running, and the store
// self-invalidates when the binary or the registry changes (see
// internal/diskcache). charhpc -cache-dir shares the same store.
//
// The platform is a request axis: GET /experiments/{id}?platform=NAME
// runs an experiment on one named preset (the listing advertises which
// presets each experiment accepts).
//
// Usage:
//
//	charhpcd                               # :8080, quick scale only
//	charhpcd -addr :9090 -scale-limit full # custom port, allow full runs
//	charhpcd -cache-dir /var/cache/charhpc -cache-max-bytes 67108864
//	charhpcd -platform-dir /etc/charhpc/platforms   # preload custom machines
//	charhpcd -log-format json -pprof        # machine logs + profiling
//	charhpcd -jobs-history 128              # finished async jobs kept (GET /runs)
//
// -warm is accepted only as -warm=false, for command lines written
// when the daemon had a startup warm-up; -warm=true exits 2.
//
// Beyond the blocking GET, runs can be submitted asynchronously:
// POST /runs answers 202 with a job ID, GET /runs/{id}/events streams
// the run's progress as Server-Sent Events, and the terminal event
// hands the client off to the cached synchronous result (charhpc
// -submit drives this end to end). A job starts at once: it shares the
// key's single-flight fill with every other caller and streams that
// fill's events. -jobs-history bounds how many finished jobs stay
// inspectable via GET /runs.
//
// -cache-max-bytes is the LRU budget of preset results and, separately,
// of custom-platform results, so the directory can hold twice it.
//
// Observability: GET /metrics (Prometheus text), GET /debug/traces
// (recent run timing trees),
// /debug/pprof/ behind -pprof, per-request access logs with
// X-Request-ID propagation, and a final JSON summary line on
// SIGINT/SIGTERM. See internal/serve/README.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jobs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	warm := flag.Bool("warm", false, "removed: accepted only as false (a cold key fills on its first request)")
	scaleLimit := flag.String("scale-limit", "quick", "largest scale served: quick or full")
	cacheDir := flag.String("cache-dir", "", "persist the results cache under this directory (empty = memory only)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "LRU byte budget of cached preset results and, separately, of custom-platform results, so the directory can hold twice it (0 = unbounded)")
	platformDir := flag.String("platform-dir", "", "preload custom platform specs (*.json) from this directory and persist POST /platforms registrations into it")
	jobsHistory := flag.Int("jobs-history", jobs.DefaultHistory, "finished async jobs retained for GET /runs inspection")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	logFormat := flag.String("log-format", "text", "log line format: text or json")
	flag.Parse()
	if *warm {
		fmt.Fprintln(os.Stderr, "charhpcd: -warm was removed: a cold key fills on its first request (pass -warm=false or nothing)")
		os.Exit(2)
	}

	logger, err := serve.DaemonLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "charhpcd: %v\n", err)
		os.Exit(2)
	}

	limit, ok := core.ParseScale(*scaleLimit)
	if !ok {
		fmt.Fprintf(os.Stderr, "charhpcd: unknown scale limit %q (want quick or full)\n", *scaleLimit)
		os.Exit(2)
	}

	var store *diskcache.Store
	if *cacheDir != "" {
		var err error
		fps := diskcache.Fingerprints{Global: core.Fingerprint(), PerID: core.Fingerprints()}
		store, err = diskcache.Open(*cacheDir, fps, *cacheMax)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charhpcd: %v\n", err)
			os.Exit(1)
		}
		logger.Info("results cache open",
			"dir", store.Dir(), "entries", store.Len(),
			"stale_purged", store.StalePurged(),
			"fingerprint", store.Fingerprint()[:12])
	}

	srv := serve.New(serve.Config{
		ScaleLimit:  limit,
		Store:       store,
		JobsHistory: *jobsHistory,
		AccessLog:   logger,
		PlatformDir: *platformDir,
	})
	if *pprofOn {
		srv.EnablePprof()
	}

	err = serve.RunDaemon(logger, *addr, srv,
		func() { logger.Info("listening", "addr", *addr, "scale_limit", limit.String()) },
		func() []any {
			st := srv.Stats()
			return []any{"runs", st.Runs, "mem_hits", st.MemHits,
				"disk_loads", st.DiskLoads, "disk_errs", st.DiskErrs}
		})
	if err != nil {
		os.Exit(1)
	}
}
