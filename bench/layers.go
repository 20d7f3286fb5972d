package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jobs"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// The layer table times each package's public functions in this
// process, after the passes, with no daemon running. Every timing is
// the median of reps batches, each batch sized to about batchTime;
// counts (allocations, files, messages) repeat exactly. README.md says
// which end-to-end metric each of these should move.

const batchTime = 30 * time.Millisecond

// layers collects the table and the first error.
type layers struct {
	out  map[string]metric
	reps int
	root string // repository root, for examples/platforms
	dir  string // scratch directory
	err  error
}

func (l *layers) set(name string, v float64, unit string) {
	l.out[name] = metric{Value: v, Unit: unit}
}

// perOp is the time one operation took, kept as a float so that
// sub-nanosecond digits of a batch average survive.
type perOp float64

func (t perOp) ns() float64 { return float64(t) }
func (t perOp) us() float64 { return float64(t) / 1e3 }
func (t perOp) ms() float64 { return float64(t) / 1e6 }

// batches runs batch reps times and returns the median time per
// operation. batch does its own untimed set-up and reports how many
// operations it timed and for how long.
func (l *layers) batches(batch func() (ops int, d time.Duration)) perOp {
	per := make([]float64, l.reps)
	for i := range per {
		ops, d := batch()
		per[i] = float64(d) / float64(ops)
	}
	return perOp(median(per))
}

// each times f, called back to back: a calibration run sizes the
// batches to batchTime.
func (l *layers) each(f func()) perOp {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= batchTime/4 || n >= 1<<22 {
			n = max(1, int(float64(n)*float64(batchTime)/float64(max(d, 1))))
			break
		}
		n *= 8
	}
	return l.batches(func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return n, time.Since(t0)
	})
}

// allocs is the heap allocations of one call of f.
func allocs(f func()) float64 {
	const n = 200
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / n)
}

// sink is the cheapest http.ResponseWriter: it counts, so the handler
// is timed and not a recorder.
type sink struct {
	h    http.Header
	code int
	n    int
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int)   { s.code = c }
func (s *sink) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}
func (s *sink) Flush() {}

// hit returns a func that serves req through h and fails the table if
// the status is not want.
func (l *layers) hit(h http.Handler, want int, method, target string, header ...string) func() {
	req := httptest.NewRequest(method, target, nil)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	w := &sink{h: http.Header{}}
	return func() {
		clear(w.h)
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.code != want && l.err == nil {
			l.err = fmt.Errorf("%s %s: status %d, want %d", method, target, w.code, want)
		}
	}
}

func layerTable(out map[string]metric, h *harness, reps int) error {
	dir, err := h.dir("layers")
	if err != nil {
		return err
	}
	l := &layers{out: out, reps: max(1, reps), root: h.root, dir: dir}
	for _, part := range []func() error{l.core, l.serve, l.diskcache, l.shard, l.jobs, l.mp, l.small} {
		if err := part(); err != nil {
			return err
		}
		if l.err != nil {
			return l.err
		}
	}
	return nil
}

// f1 is one real result, run once, that serve, report and diskcache
// metrics render, store and load.
var f1 core.Result

func (l *layers) core() error {
	quick := core.Request{Scale: core.Quick}
	var serial float64
	coreReps := min(l.reps, 3)
	for _, id := range allExperiments {
		e, ok := core.Get(id)
		if !ok {
			return fmt.Errorf("experiment %s is not registered", id)
		}
		ms := make([]float64, coreReps)
		for i := range ms {
			res := core.Run(e, quick)
			if res.Err != nil {
				return fmt.Errorf("core.Run(%s): %w", id, res.Err)
			}
			ms[i] = float64(res.Elapsed) / 1e6
			if id == "F1" {
				f1 = res
			}
		}
		l.set("core.run_ms."+id, median(ms), "ms")
		serial += median(ms) / 1e3
	}
	l.set("core.run_serial_s", serial, "s")

	t0 := time.Now()
	results, err := core.RunParallel(allExperiments, quick, runtime.NumCPU())
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("core.RunParallel: %s: %w", r.Experiment.ID, r.Err)
		}
	}
	l.set("core.run_parallel_s", time.Since(t0).Seconds(), "s")
	l.set("core.fingerprints_us", l.each(func() { core.Fingerprints() }).us(), "us")
	return nil
}

func (l *layers) serve() error {
	stub := func(core.Experiment, core.Request) core.Result { return f1 }
	srv := serve.New(serve.Config{RunFunc: stub, AccessLog: discardLog})
	get := func(want int, target string, header ...string) func() {
		return l.hit(srv, want, "GET", target, header...)
	}
	hit200 := get(200, "/experiments/F1", "Accept", "text/plain")
	hit200() // fill
	w := &sink{h: http.Header{}}
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/experiments/F1", nil))
	etag := w.h.Get("ETag")

	l.set("serve.hit200_ns", l.each(hit200).ns(), "ns")
	l.set("serve.hit200_allocs", allocs(hit200), "count")
	l.set("serve.hit304_ns", l.each(get(304, "/experiments/F1", "Accept", "text/plain", "If-None-Match", etag)).ns(), "ns")
	l.set("serve.hit_accept_q_ns", l.each(get(200, "/experiments/F1",
		"Accept", "text/csv;q=0.5, application/json;q=0.9, */*;q=0.1")).ns(), "ns")
	l.set("serve.list_ns", l.each(get(200, "/experiments")).ns(), "ns")
	l.set("serve.metrics_scrape_us", l.each(get(200, "/metrics")).us(), "us")

	// hit200 from every CPU at once: what the cache mutex costs.
	workers := runtime.NumCPU()
	hits := make([]func(), workers)
	for i := range hits {
		hits[i] = get(200, "/experiments/F1", "Accept", "text/plain")
	}
	const perWorker = 20000
	l.set("serve.hit_parallel_ns", l.batches(func() (int, time.Duration) {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, hit := range hits {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					hit()
				}
			}()
		}
		wg.Wait()
		return workers * perWorker, time.Since(t0)
	}).ns(), "ns")

	// A hot custom-platform key with the custom namespace full: every
	// hit moves the key to the back of an LRU slice under the mutex.
	spec, err := os.ReadFile(filepath.Join(l.root, "examples", "platforms", "edr-16n.json"))
	if err != nil {
		return err
	}
	defer cluster.PurgeCustoms()
	var oldest string
	for i := 0; i < serve.DefaultCustomCacheEntries; i++ {
		s, err := cluster.ParseSpec([]byte(strings.Replace(string(spec), `"label": "`, `"label": "bench `+strconv.Itoa(i)+" ", 1)))
		if err != nil {
			return err
		}
		name, _ := cluster.RegisterCustom(s)
		get(200, "/experiments/T1?platform="+name)()
		if i == 0 {
			oldest = name
		}
	}
	l.set("serve.hit_custom_ns", l.each(get(200, "/experiments/T1?platform="+oldest)).ns(), "ns")

	// A miss whose run is free: request parsing, three renderings,
	// three hashes and the cache insert. Each batch gets a fresh
	// server and asks for every key of the registry once.
	var cold []string
	for _, e := range core.All() {
		cold = append(cold, "/experiments/"+e.ID)
		for _, p := range e.Platforms() {
			cold = append(cold, "/experiments/"+e.ID+"?platform="+p)
		}
	}
	l.set("serve.fill_render_us", l.batches(func() (int, time.Duration) {
		fresh := serve.New(serve.Config{RunFunc: stub, AccessLog: discardLog})
		fills := make([]func(), len(cold))
		for i, target := range cold {
			fills[i] = l.hit(fresh, 200, "GET", target)
		}
		t0 := time.Now()
		for _, fill := range fills {
			fill()
		}
		return len(cold), time.Since(t0)
	}).us(), "us")

	st, err := diskcache.Open(filepath.Join(l.dir, "serve-store"), diskcache.Fingerprints{Global: "bench"}, 0)
	if err != nil {
		return err
	}
	l.set("serve.store_result_us", l.each(func() {
		if err := serve.StoreResult(st, f1); err != nil && l.err == nil {
			l.err = err
		}
	}).us(), "us")
	l.set("serve.load_result_us", l.each(func() {
		if _, ok := serve.LoadResult(st, f1.Experiment, f1.Req); !ok && l.err == nil {
			l.err = fmt.Errorf("serve.LoadResult: stored result not found")
		}
	}).us(), "us")

	// What one key costs on disk, by today's layout.
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		return err
	}
	var bytes int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".entry") {
			bytes += info.Size()
		}
	}
	l.set("diskcache.files_per_key", float64(st.Len()), "count")
	l.set("diskcache.bytes_per_key", float64(bytes), "bytes")
	return nil
}

func (l *layers) diskcache() error {
	const ids, platforms = 20, 20 // 400 entries
	fps := diskcache.Fingerprints{Global: "gen-1", PerID: map[string]string{}}
	for i := 0; i < ids; i++ {
		fps.PerID["E"+strconv.Itoa(i)] = "fp-1"
	}
	dir := filepath.Join(l.dir, "store")
	st, err := diskcache.Open(dir, fps, 0)
	if err != nil {
		return err
	}
	body := []byte(strings.Repeat("0123456789abcdef", 166)) // 2.6 KB
	entry := diskcache.Entry{ETag: etagOf(body), RunID: "bench", Elapsed: time.Millisecond, Body: body}
	keyOf := func(i, p int) diskcache.Key {
		return diskcache.Key{ID: "E" + strconv.Itoa(i), Scale: "quick", Platform: "p" + strconv.Itoa(p), ContentType: "text/plain"}
	}
	putAll := func(st *diskcache.Store, i int) error {
		for p := 0; p < platforms; p++ {
			if err := st.Put(keyOf(i, p), entry); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < ids; i++ {
		if err := putAll(st, i); err != nil {
			return err
		}
	}
	l.set("diskcache.put_us", l.each(func() {
		if err := st.Put(keyOf(0, 0), entry); err != nil && l.err == nil {
			l.err = err
		}
	}).us(), "us")
	l.set("diskcache.get_us", l.each(func() {
		if _, ok := st.Get(keyOf(1, 1)); !ok && l.err == nil {
			l.err = fmt.Errorf("diskcache.Get: stored entry not found")
		}
	}).us(), "us")
	l.set("diskcache.open_ms", l.each(func() {
		if _, err := diskcache.Open(dir, fps, 0); err != nil && l.err == nil {
			l.err = err
		}
	}).ms(), "ms")

	// The deploy that changes one experiment: the store's generation
	// differs, every entry is re-validated, E0's 20 are purged. Each
	// batch first puts the directory back the way gen-1 left it.
	next := diskcache.Fingerprints{Global: "gen-2", PerID: map[string]string{}}
	for id, fp := range fps.PerID {
		next.PerID[id] = fp
	}
	next.PerID["E0"] = "fp-2"
	l.set("diskcache.open_reconcile_ms", l.batches(func() (int, time.Duration) {
		old, err := diskcache.Open(dir, fps, 0)
		if err == nil {
			err = putAll(old, 0)
		}
		t0 := time.Now()
		if err == nil {
			var st2 *diskcache.Store
			if st2, err = diskcache.Open(dir, next, 0); err == nil && st2.StalePurged() != platforms {
				err = fmt.Errorf("diskcache reconcile purged %d entries, want %d", st2.StalePurged(), platforms)
			}
		}
		if err != nil && l.err == nil {
			l.err = err
		}
		return 1, time.Since(t0)
	}).ms(), "ms")
	return nil
}

func (l *layers) shard() error {
	ring := shard.NewRing(shard.DefaultVNodes)
	names := make([]string, 8)
	for i := range names {
		names[i] = "http://10.0.0." + strconv.Itoa(i+1) + ":8080"
		ring.Add(names[i])
	}
	k := shard.Key("F1", "quick", "ib-8n")
	l.set("shard.ring_owner_ns", l.each(func() { ring.Owner(k) }).ns(), "ns")
	l.set("shard.ring_successors_ns", l.each(func() { ring.Successors(k, len(names)) }).ns(), "ns")
	l.set("shard.ring_add_us", l.each(func() {
		r := shard.NewRing(shard.DefaultVNodes)
		for _, n := range names {
			r.Add(n)
		}
	}).us()/float64(len(names)), "us")

	// The router in front of two in-process shards, hot key: validate,
	// ring lookup, counter lookup, proxy copy, one loopback hop.
	stub := func(core.Experiment, core.Request) core.Result { return f1 }
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{RunFunc: stub, AccessLog: discardLog}))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rt, err := shard.New(shard.Config{Shards: urls, AccessLog: discardLog})
	if err != nil {
		return err
	}
	defer rt.Close()
	routed := l.hit(rt, 200, "GET", "/experiments/F1", "Accept", "text/plain")
	routed() // fill
	l.set("shard.router_inproc_us", l.each(routed).us(), "us")
	l.set("shard.router_inproc_allocs", allocs(routed), "count")
	return nil
}

func (l *layers) jobs() error {
	ctx := context.Background()
	reg := jobs.New(0, 0)
	noop := func(context.Context, *jobs.Job) jobs.Outcome { return jobs.Outcome{} }
	l.set("jobs.submit_settle_us", l.each(func() {
		if err := reg.Submit(jobs.Spec{Experiment: "F1", Scale: "quick"}, noop).WaitSettled(ctx); err != nil && l.err == nil {
			l.err = err
		}
	}).us(), "us")

	// One job emitting 1000 events to 8 followers, each on the
	// EventsSince loop the SSE handler runs.
	const events, followers = 1000, 8
	l.set("jobs.fanout_ns_per_event", l.batches(func() (int, time.Duration) {
		release := make(chan struct{})
		j := reg.Submit(jobs.Spec{Experiment: "F1", Scale: "quick"}, func(_ context.Context, j *jobs.Job) jobs.Outcome {
			<-release
			for i := 0; i < events; i++ {
				j.Emit(jobs.EventPhase, nil)
			}
			return jobs.Outcome{}
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
		t0 := time.Now()
		close(release)
		wg.Wait()
		return events * followers, time.Since(t0)
	}).ns(), "ns")
	return nil
}

func (l *layers) mp() error {
	// Host nanoseconds per simulated message: what the fabric simulator
	// costs the Sim-bound experiments (T4, F1, F5, F12-F14). Simulated
	// time and the message count must not move when it gets faster.
	cfg := mp.Config{Fabric: mp.Sim, Model: cluster.IBCluster()}
	sent := func(c *mp.Comm) uint64 { s := c.Stats(); return s.SendsEager + s.SendsRndv }

	const trips = 10000
	l.set("mp.sim_pingpong_ns_per_msg", l.batches(func() (int, time.Duration) {
		t0 := time.Now()
		err := mp.Run(2, cfg, func(c *mp.Comm) error {
			buf := make([]byte, 8)
			for i := 0; i < trips; i++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 0, buf); err != nil {
						return err
					}
					if _, err := c.Recv(1, 0, buf); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(0, 0, buf); err != nil {
						return err
					}
					if err := c.Send(0, 0, buf); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil && l.err == nil {
			l.err = err
		}
		return 2 * trips, time.Since(t0)
	}).ns(), "ns")

	const ranks, rounds = 8, 200
	var msgs uint64
	l.set("mp.sim_alltoall_ns_per_msg", l.batches(func() (int, time.Duration) {
		var mu sync.Mutex
		msgs = 0
		t0 := time.Now()
		err := mp.Run(ranks, cfg, func(c *mp.Comm) error {
			send, recv := make([]byte, ranks*1024), make([]byte, ranks*1024)
			for i := 0; i < rounds; i++ {
				if err := c.Alltoall(send, recv); err != nil {
					return err
				}
			}
			mu.Lock()
			msgs += sent(c)
			mu.Unlock()
			return nil
		})
		if err != nil && l.err == nil {
			l.err = err
		}
		return int(msgs), time.Since(t0)
	}).ns(), "ns")
	l.set("mp.sim_msgs", float64(msgs), "count")
	return nil
}

// small is the layers with one or two numbers each.
func (l *layers) small() error {
	doc := f1.Rec.Document()
	l.set("report.json_us", l.each(func() { doc.JSON(io.Discard) }).us(), "us")
	l.set("report.csv_us", l.each(func() { doc.CSV(io.Discard) }).us(), "us")

	spec, err := os.ReadFile(filepath.Join(l.root, "examples", "platforms", "edr-16n.json"))
	if err != nil {
		return err
	}
	l.set("cluster.parse_spec_us", l.each(func() {
		if _, err := cluster.ParseSpec(spec); err != nil && l.err == nil {
			l.err = err
		}
	}).us(), "us")
	l.set("cluster.lookup_ns", l.each(func() { cluster.Lookup("ib-8n") }).ns(), "ns")

	// What Router.routed does per request: a get-or-create counter
	// lookup that formats its labels every time.
	reg := obs.NewRegistry()
	l.set("obs.counter_lookup_inc_ns", l.each(func() {
		reg.Counter("charhpc_router_requests_total", "requests routed, by handler and status code",
			obs.L("handler", "experiment"), obs.L("code", "200")).Inc()
	}).ns(), "ns")
	for i := 0; i < 50; i++ {
		reg.Counter("bench_counter_total", "one of fifty", obs.L("n", strconv.Itoa(i))).Inc()
	}
	for i := 0; i < 5; i++ {
		reg.Histogram("bench_seconds", "one of five", nil, obs.L("n", strconv.Itoa(i))).Observe(0.001)
	}
	l.set("obs.write_prometheus_us", l.each(func() { reg.WritePrometheus(io.Discard) }).us(), "us")
	return nil
}
