// Command charhpc runs the platform characterization: every table and
// figure of the reconstructed evaluation (see the README's experiment
// families), or a selected subset, on the default platform set or one
// named preset.
//
// Usage:
//
//	charhpc -list
//	charhpc -platforms                  # list platform presets
//	charhpc -scale quick                # all experiments, reduced sweeps
//	charhpc -scale full -exp F1,T3      # selected experiments, paper scale
//	charhpc -platform gige-8n T1        # T1 on the GigE preset
//	charhpc -platform bgp-64n           # everything bgp-64n can answer
//	charhpc -platform-file mine.json M3 # M3 on a user-defined machine
//	charhpc -j 4 -out results/          # 4-way parallel, one file per ID
//	charhpc -trace T4                   # print the run's timing tree
//	charhpc -trace-json traces.jsonl T4 # span trees as JSON lines ('-' = stdout)
//	charhpc -submit :8080 T1            # run on a charhpcd daemon, follow live
//	charhpc -submit :8079 -retries 3 T1 # via charhpc-router; ride out a failover
//
// With -submit the selection is not executed locally: each experiment
// is submitted to the daemon's async run API (POST /runs), its
// progress events stream back as a live one-line status (-follow,
// default on; phases and sections as the run produces them), and the
// finished job hands off to the daemon's cached result, printed like a
// local run's output.
//
// Experiment IDs can be given as positional arguments or via -exp;
// "all" (the default) selects the whole registry. With -platform the
// experiments run on that preset instead of their canonical platform
// set; an unknown or incompatible preset for an explicitly selected
// experiment is an error, while an "all" selection narrows to the
// experiments the preset can answer.
//
// Experiments run on a core.RunParallelFunc worker pool (-j, default 1);
// each writes to its own buffer, so per-experiment output — including
// the files under -out — is identical to a serial run's, and stdout
// stays in registry order. A failed experiment no longer aborts the
// run: the rest still execute, errors are collected, and the exit
// status is non-zero at the end.
//
// With -cache-dir, runs share the daemon's disk-persistent results
// cache: an experiment already in the store is replayed instead of
// re-executed (its header says "cached" and shows the original run's
// wall time), and fresh runs are written through for later CLI or
// charhpcd use. Cache keys carry the platform, so default and
// preset-qualified results never collide. The store self-invalidates
// when the binary, the experiment registry, or the preset registry
// changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/serve"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "sweep scale: quick or full")
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	platformFlag := flag.String("platform", "", "run on this platform preset instead of each experiment's default set (see -platforms)")
	platformFile := flag.String("platform-file", "", "run on the custom platform described by this JSON spec (see the README's bring-your-own-machine section)")
	listFlag := flag.Bool("list", false, "list experiments (with their valid platforms) and exit")
	platformsFlag := flag.Bool("platforms", false, "list platform presets and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	jFlag := flag.Int("j", 1, "worker pool size: run up to j experiments concurrently")
	cacheDir := flag.String("cache-dir", "", "share the disk-persistent results cache (see charhpcd)")
	traceFlag := flag.Bool("trace", false, "print each run's timing tree (per-platform and per-phase spans) after its output")
	traceJSON := flag.String("trace-json", "", "append each run's span tree as one JSON line to this file ('-' = stdout)")
	submitFlag := flag.String("submit", "", "submit to a charhpcd daemon at this address (POST /runs) instead of running locally")
	followFlag := flag.Bool("follow", true, "with -submit: stream each job's events as live progress, then print its result")
	retriesFlag := flag.Int("retries", 0,
		"with -submit: retry each daemon call up to this many extra times, with exponential backoff and jitter, on dial errors and 502/503 (a shard router failing over)")
	flag.Parse()

	if *listFlag {
		for _, e := range core.All() {
			platforms := strings.Join(e.Platforms(), ",")
			if platforms == "" {
				platforms = "-"
			}
			fmt.Printf("%-4s %-7s %-55s [%s]\n", e.ID, e.Kind, e.Title, platforms)
		}
		return
	}
	if *platformsFlag {
		for _, name := range cluster.Names() {
			m, _ := cluster.Lookup(name)
			fmt.Printf("%-8s %-28s caps=%s\n", name, m.Topo.String(), m.Caps())
		}
		return
	}

	scale, ok := core.ParseScale(*scaleFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "charhpc: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}
	req := core.Request{Scale: scale, Platform: *platformFlag}
	// -platform-file registers a user-defined machine as data and runs
	// on it under its content-hash name — the CLI half of the service's
	// POST /platforms. The canonical bytes are kept so -submit can
	// register the same machine (same hash, same name) on the daemon.
	var customSpec []byte
	if *platformFile != "" {
		if req.Platform != "" {
			fmt.Fprintln(os.Stderr, "charhpc: -platform and -platform-file are mutually exclusive")
			os.Exit(2)
		}
		b, err := os.ReadFile(*platformFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: %v\n", err)
			os.Exit(2)
		}
		spec, err := cluster.ParseSpec(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: %s: %v\n", *platformFile, err)
			os.Exit(2)
		}
		name, _ := cluster.RegisterCustom(spec)
		fmt.Fprintf(os.Stderr, "charhpc: %s registered as %s\n", *platformFile, name)
		req.Platform = name
		customSpec = spec.Canonical()
	}
	if req.Platform != "" {
		if _, ok := cluster.Lookup(req.Platform); !ok {
			fmt.Fprintf(os.Stderr, "charhpc: unknown platform %q (use -platforms)\n", req.Platform)
			os.Exit(2)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: %v\n", err)
			os.Exit(1)
		}
	}

	// Experiment selection: positional IDs win over -exp; "all" means
	// the whole registry, narrowed to compatible experiments when a
	// platform was named.
	sel := *expFlag
	if args := flag.Args(); len(args) > 0 {
		sel = strings.Join(args, ",")
	}
	var ids []string
	if sel == "all" {
		for _, e := range core.All() {
			if req.Platform != "" && e.CheckPlatform(req.Platform) != nil {
				continue
			}
			ids = append(ids, e.ID)
		}
	} else {
		seen := map[string]bool{}
		for _, id := range strings.Split(sel, ",") {
			id = strings.TrimSpace(id)
			e, ok := core.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "charhpc: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			if err := e.CheckPlatform(req.Platform); err != nil {
				fmt.Fprintf(os.Stderr, "charhpc: %v\n", err)
				os.Exit(2)
			}
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}

	// Client mode: hand the selection to a daemon's async run API and
	// render its progress; nothing executes in this process. A custom
	// platform is registered on the daemon first, so the submitted
	// custom-<hash> name resolves there too.
	if *submitFlag != "" {
		os.Exit(runSubmit(*submitFlag, ids, req, *followFlag, customSpec, *retriesFlag))
	}

	var store *diskcache.Store
	if *cacheDir != "" {
		var err error
		store, err = diskcache.Open(*cacheDir,
			diskcache.Fingerprints{Global: core.Fingerprint(), PerID: core.Fingerprints()}, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: %v\n", err)
			os.Exit(1)
		}
	}

	// -trace-json sink: one JSON line per executed run (cached replays
	// carry no span), appended as results print in registry order.
	var traceSink *os.File
	if *traceJSON != "" {
		if *traceJSON == "-" {
			traceSink = os.Stdout
		} else {
			f, err := os.OpenFile(*traceJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "charhpc: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			traceSink = f
		}
	}

	// Run on the worker pool, but print in registry order as results
	// land: slot i's channel is filled whenever experiment i finishes,
	// and the main goroutine drains the slots in order. Output is
	// buffered per experiment (the header carries its wall time), so
	// each block appears when that experiment completes, not live.
	slots := make([]chan core.Result, len(ids))
	for i := range slots {
		slots[i] = make(chan core.Result, 1)
	}
	index := make(map[string]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}

	// With a store, cached experiments replay without running — their
	// slot is filled up front from disk — and only the misses go to
	// the pool, which writes fresh results through for next time.
	cached := make([]bool, len(ids))
	toRun := ids
	if store != nil {
		toRun = nil
		for i, id := range ids {
			e, _ := core.Get(id)
			if r, ok := serve.LoadResult(store, e, req); ok {
				cached[i] = true
				slots[i] <- r
				continue
			}
			toRun = append(toRun, id)
		}
	}
	go func() {
		if len(toRun) == 0 {
			return
		}
		// IDs and platform were validated above, so the pool cannot
		// fail early.
		if err := core.RunParallelFunc(toRun, req, *jFlag, func(r core.Result) {
			if store != nil && r.Err == nil {
				if err := serve.StoreResult(store, r); err != nil {
					fmt.Fprintf(os.Stderr, "charhpc: cache write %s: %v\n", r.Experiment.ID, err)
				}
			}
			slots[index[r.Experiment.ID]] <- r
		}); err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: %v\n", err)
			os.Exit(2)
		}
	}()

	var failed []string
	for i := range slots {
		r := <-slots[i]
		e := r.Experiment
		mark := ""
		if cached[i] {
			mark = ", cached"
		}
		if req.Platform != "" {
			mark += ", platform=" + req.Platform
		}
		fmt.Printf("\n### %s (%s): %s  [%s%s]\n", e.ID, e.Kind, e.Title,
			r.Elapsed.Round(time.Millisecond), mark)
		os.Stdout.Write(r.Rec.Bytes())
		if *traceFlag {
			// Cached replays carry no span: the tree records this run's
			// timing, and a replay did not run.
			if sp := r.Rec.Span(); sp != nil {
				fmt.Printf("--- trace %s ---\n", e.ID)
				sp.WriteTree(os.Stdout)
			}
		}
		if traceSink != nil {
			if sp := r.Rec.Span(); sp != nil {
				if b, err := json.Marshal(sp); err == nil {
					fmt.Fprintf(traceSink, "%s\n", b)
				} else {
					fmt.Fprintf(os.Stderr, "charhpc: trace-json %s: %v\n", e.ID, err)
				}
			}
		}
		bad := false
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: experiment %s: %v\n", e.ID, r.Err)
			bad = true
		}
		if *outDir != "" {
			name := e.ID
			if req.Platform != "" {
				name += "@" + req.Platform
			}
			path := filepath.Join(*outDir, name+".txt")
			if err := os.WriteFile(path, r.Rec.Bytes(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "charhpc: %v\n", err)
				bad = true
			}
		}
		if bad {
			failed = append(failed, e.ID)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "charhpc: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}
