package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The five workloads, in the order passes interleave them. Each names
// the regime it puts the service in; the regime is proved per pass
// from the daemons' own counters, not assumed.
var workloadNames = []string{"warm_get", "routed_warm", "async_sse", "disk_load", "cold_fill"}

// bench is one benchmark run: the harness plus what set-up learned.
type bench struct {
	h       *harness
	ck      *checker
	seed    int64
	clients int // closed-loop callers

	// The traced replay runs the same workloads against the same
	// handlers inside this process, with tr recording spans; the
	// measured passes have inproc false and tr nil.
	inproc bool
	tr     *tracer

	// Seed cache directory and the catalog learned while filling it;
	// made on first use because cold_fill needs neither.
	seedDir   string
	cat       *catalog
	populateS float64
}

// pass is what one pass of one workload measured. A pass spawns and
// stops its own processes; nothing survives into the next one.
type pass struct {
	attempted, failed int
	firstErr          error

	lat   []time.Duration // latency of each verified operation
	timed time.Duration   // wall time those operations were spread over
	round bool            // the pass is one round of a round workload
	setup []time.Duration // each set-up performed, up to the first timed request
	ready []time.Duration // exec to first /healthz 200 of each charhpcd

	shardCPU, routerCPU, loadgenCPU time.Duration
	shardRSS, routerRSS             float64 // peak resident MiB
}

func (p *pass) fail(n int, err error) {
	p.failed += n
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// failRegime marks the whole pass failed: counters that contradict the
// regime mean the pass measured something other than what it claims,
// so none of its operations count.
func (p *pass) failRegime(err error) {
	p.failed = p.attempted
	p.firstErr = err
	p.lat = nil
}

// counters reads a daemon's /healthz tokens and /metrics samples into
// one map; /metrics keys are the sample's full name with labels.
func counters(base string) (map[string]int64, error) {
	out, err := health(base)
	if err != nil {
		return nil, err
	}
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if f, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = int64(f)
			}
		}
	}
	return out, sc.Err()
}

// sumCounters snapshots several daemons and adds their counters up.
func sumCounters(servers []*server) (map[string]int64, error) {
	sum := map[string]int64{}
	for _, s := range servers {
		c, err := counters(s.url)
		if err != nil {
			return nil, fmt.Errorf("%s counters: %w", s.name, err)
		}
		for k, v := range c {
			sum[k] += v
		}
	}
	return sum, nil
}

// regime compares counter deltas with what the workload's regime
// demands; the error names the counter, expected and got.
func regime(workload string, before, after map[string]int64, want map[string]int64) error {
	for _, k := range sortedKeys(want) {
		if got := after[k] - before[k]; got != want[k] {
			return fmt.Errorf("%s regime check: counter %s moved by %d, expected %d", workload, k, got, want[k])
		}
	}
	return nil
}

// server is one running charhpcd or charhpc-router: a spawned process
// in the measured passes, the same handler inside this process (proc
// nil) in the traced replay.
type server struct {
	name  string
	url   string
	ready time.Duration // exec to first /healthz 200
	proc  *proc
	shut  func() // in-process only
}

// jobsHistory is charhpcd's -jobs-history in every workload. The
// default ring of 64 finished jobs lets a job be evicted between its
// 202 and the client's GET of its events when the client is
// descheduled for a few milliseconds, which async_sse's callers are
// under load; that 404 is the program's documented behaviour, not
// what this benchmark measures.
const jobsHistory = 256

func (b *bench) charhpcd(name, cacheDir string) (*server, error) {
	if b.inproc {
		return b.inprocDaemon(name, cacheDir)
	}
	p, err := b.h.spawn(name, "charhpcd", func(addr string) []string {
		return []string{"-addr", addr, "-warm=false", "-cache-dir", cacheDir, "-jobs-history", strconv.Itoa(jobsHistory)}
	})
	if err != nil {
		return nil, err
	}
	return &server{name: name, url: p.url, ready: p.ready, proc: p}, nil
}

func (b *bench) router(shards []*server) (*server, error) {
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.url
	}
	if b.inproc {
		return b.inprocRouter(urls)
	}
	p, err := b.h.spawn("router", "charhpc-router", func(addr string) []string {
		return []string{"-addr", addr, "-warm=false", "-shards", strings.Join(urls, ",")}
	})
	if err != nil {
		return nil, err
	}
	return &server{name: "router", url: p.url, ready: p.ready, proc: p}, nil
}

// stop ends a server the workload is done with and returns the CPU time
// it used over its whole life (0 in process).
func (b *bench) stop(s *server) (time.Duration, error) {
	if s.proc == nil {
		b.kill(s)
		return 0, nil
	}
	return b.h.stop(s.proc)
}

// kill is the clean-up of error paths; harmless after stop.
func (b *bench) kill(s *server) {
	if s.proc != nil {
		b.h.kill(s.proc)
	} else if s.shut != nil {
		s.shut()
		s.shut = nil
	}
}

// cpu is the live server's CPU time so far, rss its peak resident set
// in MiB; both are 0 in process, where they cannot be told apart from
// the load generator's.
func (s *server) cpu() (time.Duration, error) {
	if s.proc == nil {
		return 0, nil
	}
	return s.proc.cpuNow()
}

func (s *server) rss() (float64, error) {
	if s.proc == nil {
		return 0, nil
	}
	return s.proc.rssPeakMB()
}

// seeded fills the seed cache directory once per run: a set-up daemon
// computes every hot key, all three representations of each are
// fetched and checked, and their ETags and lengths become the catalog.
func (b *bench) seeded() error {
	if b.cat != nil {
		return nil
	}
	t0 := time.Now()
	dir, err := b.h.dir("seed")
	if err != nil {
		return err
	}
	srv, err := b.charhpcd("charhpcd-seed", dir)
	if err != nil {
		return err
	}
	defer b.kill(srv)
	cat := &catalog{keys: hotKeys(), want: map[key]*[3]expect{}}
	c := newClient(nil)
	defer c.close()
	for _, k := range cat.keys {
		w := new([3]expect)
		for a := range accepts {
			r, err := c.do("GET", srv.url+k.path(), accepts[a], "")
			if err == nil {
				err = b.ck.fresh(k, a, r)
			}
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			w[a] = expect{etag: r.etag, length: len(r.body)}
		}
		cat.want[k] = w
	}
	if _, err := b.stop(srv); err != nil {
		return err
	}
	b.seedDir, b.cat, b.populateS = dir, cat, time.Since(t0).Seconds()
	return nil
}

// hotDaemon spawns a charhpcd over its own copy of the seed directory
// and requests every pair once, so all 45 keys sit in memory and every
// representation has been checked against the catalog.
func (b *bench) hotDaemon(name string) (*server, error) {
	dir, err := b.h.dir(name)
	if err != nil {
		return nil, err
	}
	if err := copyDir(b.seedDir, dir); err != nil {
		return nil, err
	}
	srv, err := b.charhpcd(name, dir)
	if err != nil {
		return nil, err
	}
	if err := b.touchAll(srv.url); err != nil {
		b.kill(srv)
		return nil, err
	}
	return srv, nil
}

// touchAll GETs all 135 pairs from base and checks each one.
func (b *bench) touchAll(base string) error {
	c := newClient(nil)
	defer c.close()
	for _, k := range b.cat.keys {
		for a := range accepts {
			r, err := c.do("GET", base+k.path(), accepts[a], "")
			if err == nil {
				err = b.cat.known(k, a, false, 0, r)
			}
			if err != nil {
				return fmt.Errorf("set-up via %s: %w", base, err)
			}
		}
	}
	return nil
}

// fanOut runs one goroutine per client, each with its own connection.
// A client calls its op (n counts its calls) until the op says there is
// no more; a call that returns a nil error is a verified operation and
// its latency is kept. Closed loop: a client sends its next request
// only when the previous one has been answered and checked, as callers
// that wait for a reply do.
func (p *pass) fanOut(b *bench, newOp func(c int, cl *client) func(n int) (more bool, err error)) {
	type result struct {
		lat       []time.Duration
		attempted int
		failed    int
		err       error
	}
	res := make([]result, b.clients)
	var wg sync.WaitGroup
	for c := range res {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(b.tr)
			defer cl.close()
			op := newOp(c, cl)
			r := &res[c]
			for n := 0; ; n++ {
				t0 := time.Now()
				more, err := op(n)
				if !more {
					return
				}
				r.attempted++
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
					continue
				}
				r.lat = append(r.lat, time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	for _, r := range res {
		p.attempted += r.attempted
		p.lat = append(p.lat, r.lat...)
		if r.failed > 0 {
			p.fail(r.failed, r.err)
		}
	}
}

// closedLoop keeps every client calling its op for d.
func (p *pass) closedLoop(b *bench, d time.Duration, newOp func(c int, cl *client) func(n int) error) {
	start := time.Now()
	deadline := start.Add(d)
	p.fanOut(b, func(c int, cl *client) func(n int) (bool, error) {
		op := newOp(c, cl)
		return func(n int) (bool, error) {
			if !time.Now().Before(deadline) {
				return false, nil
			}
			return true, op(n)
		}
	})
	p.timed += time.Since(start)
}

// getOp is the operation of warm_get and routed_warm: one GET from the
// seeded stream, conditional every 4th time, checked against the
// catalog.
func (b *bench) getOp(target string) func(c int, cl *client) func(n int) error {
	return func(c int, cl *client) func(n int) error {
		next := requestStream(b.seed, c, b.cat.keys)
		return func(n int) error {
			rq := next()
			inm := ""
			if rq.conditional {
				inm = b.cat.want[rq.key][rq.accept].etag
			}
			r, err := cl.do("GET", target+rq.key.path(), accepts[rq.accept], inm)
			if err != nil {
				return err
			}
			return b.cat.known(rq.key, rq.accept, rq.conditional, n, r)
		}
	}
}

// sseOp is the operation of async_sse: submit a run of a hot key, then
// follow its event stream to the terminal event, which must say the
// result came from memory and carry the catalog's text ETag.
func (b *bench) sseOp(target string) func(c int, cl *client) func(n int) error {
	return func(c int, cl *client) func(n int) error {
		next := requestStream(b.seed, c, b.cat.keys)
		return func(int) error {
			k := next().key
			r, err := cl.do("POST", target+"/runs?"+k.query(), "", "")
			if err != nil {
				return err
			}
			if r.status != http.StatusAccepted {
				return fmt.Errorf("POST /runs %s: status %d, want 202", k, r.status)
			}
			var sub struct {
				EventsURL string `json:"events_url"`
			}
			if err := json.Unmarshal(r.body, &sub); err != nil || sub.EventsURL == "" {
				return fmt.Errorf("POST /runs %s: unusable body %q", k, r.body)
			}
			data, err := cl.followEvents(target + sub.EventsURL)
			if err != nil {
				return fmt.Errorf("job for %s: %w", k, err)
			}
			if data["tier"] != "mem" {
				return fmt.Errorf("job for %s: tier %q, want mem", k, data["tier"])
			}
			if want := b.cat.want[k][acceptText].etag; data["etag"] != want {
				return fmt.Errorf("job for %s: etag %s, want %s", k, data["etag"], want)
			}
			return nil
		}
	}
}

// followEvents reads a job's Server-Sent Events to the end of the
// stream and returns the data of its "done" event.
func (c *client) followEvents(url string) (map[string]string, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	defer c.tr.request(req)()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var event string
	var done map[string]string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			var ev struct {
				Data map[string]string `json:"data"`
			}
			if err := json.Unmarshal([]byte(v), &ev); err != nil {
				return nil, fmt.Errorf("events: bad done event %q", v)
			}
			done = ev.Data
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if done == nil {
		return nil, fmt.Errorf("events: stream ended on %q, not done", event)
	}
	return done, nil
}

// setupRepeats is how often a hit-path pass performs its set-up: the
// stack is started, made hot and stopped twice before the start that
// is measured against, so setup_s is a median of 3 per pass.
const setupRepeats = 3

// stack is the servers of one hit-path pass.
type stack struct {
	shards []*server
	router *server // nil unless routed
}

func (st *stack) target() string {
	if st.router != nil {
		return st.router.url
	}
	return st.shards[0].url
}

func (st *stack) all() []*server {
	if st.router != nil {
		return append(st.shards[:len(st.shards):len(st.shards)], st.router)
	}
	return st.shards
}

// startStack starts the servers of a hit-path workload and makes every
// key hot on every shard (and, routed, checks every pair through the
// router): one charhpcd, or two behind an ungated charhpc-router.
func (b *bench) startStack(routed bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			b.killStack(st)
		}
	}()
	nshards := 1
	if routed {
		nshards = 2
	}
	for i := 0; i < nshards; i++ {
		s, err := b.hotDaemon(fmt.Sprintf("charhpcd-%d", i))
		if err != nil {
			return st, err
		}
		st.shards = append(st.shards, s)
	}
	if routed {
		if st.router, err = b.router(st.shards); err != nil {
			return st, err
		}
		if err := b.touchAll(st.router.url); err != nil {
			return st, err
		}
	}
	return st, nil
}

func (b *bench) killStack(st *stack) {
	for _, s := range st.all() {
		b.kill(s)
	}
}

func (b *bench) stopStack(st *stack) error {
	var errs []error
	for _, s := range st.all() {
		_, err := b.stop(s)
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// cpu returns the live CPU time of the shards (summed) and the router.
func (st *stack) cpu() (shards, router time.Duration, err error) {
	for _, s := range st.shards {
		c, err := s.cpu()
		if err != nil {
			return 0, 0, err
		}
		shards += c
	}
	if st.router != nil {
		router, err = st.router.cpu()
	}
	return shards, router, err
}

// stream runs one pass of a hit-path workload: start the stack, make
// every key hot, then d of closed-loop operations against it, then
// prove the regime from the servers' counters.
func (b *bench) stream(workload string, d time.Duration) (*pass, error) {
	if err := b.seeded(); err != nil {
		return nil, err
	}
	p := &pass{}
	routed := workload == "routed_warm"
	repeats := setupRepeats
	if b.inproc {
		repeats = 1
	}
	var st *stack
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		var err error
		if st, err = b.startStack(routed); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0))
		for _, s := range st.shards {
			p.ready = append(p.ready, s.ready)
		}
		if i < repeats-1 {
			if err := b.stopStack(st); err != nil {
				return nil, err
			}
		}
	}
	defer b.killStack(st)

	before, err := sumCounters(st.all())
	if err != nil {
		return nil, err
	}
	op := b.getOp(st.target())
	if workload == "async_sse" {
		op = b.sseOp(st.target())
	}
	shard0, router0, err := st.cpu()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	p.closedLoop(b, d, op)
	p.loadgenCPU = selfCPU() - self0
	shard1, router1, err := st.cpu()
	if err != nil {
		return nil, err
	}
	p.shardCPU, p.routerCPU = shard1-shard0, router1-router0

	after, err := sumCounters(st.all())
	if err != nil {
		return nil, err
	}
	ops := int64(p.attempted)
	want := map[string]int64{"runs": 0, "disk_loads": 0, "disk_errs": 0, "mem_hits": ops}
	if workload == "async_sse" {
		want[`charhpc_jobs_total{state="done"}`] = ops
	}
	if routed {
		want["charhpc_router_failovers_total"] = 0
	}
	if err := regime(workload, before, after, want); err != nil {
		p.failRegime(err)
	}
	for _, s := range st.shards {
		rss, err := s.rss()
		if err != nil {
			return nil, err
		}
		p.shardRSS = max(p.shardRSS, rss)
	}
	if routed {
		if p.routerRSS, err = st.router.rss(); err != nil {
			return nil, err
		}
	}
	return p, b.stopStack(st)
}

// rounds runs one pass of a round workload: as many rounds as fit in d
// (at least one), each a freshly started daemon that serves every key
// of the workload once and is stopped. Every round is returned as a
// pass of its own, so the run's metrics are medians over rounds. The
// CPU charged to a round is the daemon's whole life, start-up
// included, because that is what a restart or a miss costs the
// operator.
func (b *bench) rounds(workload string, d time.Duration) ([]*pass, error) {
	round, dir := b.coldRound, ""
	if workload == "disk_load" {
		if err := b.seeded(); err != nil {
			return nil, err
		}
		round = b.diskRound
	}
	var out []*pass
	for start := time.Now(); len(out) == 0 || time.Since(start) < d; {
		p := &pass{}
		self0 := selfCPU()
		t0 := time.Now()
		var err error
		switch {
		case workload == "cold_fill":
			dir, err = b.h.dir("cold")
		case dir == "":
			// One copy of the seed directory per pass: its rounds
			// only read it.
			if dir, err = b.h.dir("disk"); err == nil {
				err = copyDir(b.seedDir, dir)
			}
		}
		if err != nil {
			return nil, err
		}
		srv, err := b.charhpcd("charhpcd-"+workload, dir)
		if err != nil {
			return nil, err
		}
		p.ready = append(p.ready, srv.ready)
		p.setup = append(p.setup, time.Since(t0))
		if err = round(p, srv.url); err == nil {
			p.shardRSS, err = srv.rss()
		}
		if err != nil {
			b.kill(srv)
			return nil, err
		}
		if p.shardCPU, err = b.stop(srv); err != nil {
			return nil, err
		}
		p.loadgenCPU = selfCPU() - self0
		out = append(out, p)
	}
	return out, nil
}

// diskRound is the operator's restart: a memory-cold daemon over a
// populated store serves each hot key once, Accept rotated by key
// index, the keys dealt round-robin to the clients. The files are hot
// in the page cache, so this times decode and validation, not the
// device.
func (b *bench) diskRound(p *pass, base string) error {
	keys := b.cat.keys
	t0 := time.Now()
	p.fanOut(b, func(c int, cl *client) func(n int) (bool, error) {
		return func(n int) (bool, error) {
			i := c + n*b.clients
			if i >= len(keys) {
				return false, nil
			}
			a := i % len(accepts)
			r, err := cl.do("GET", base+keys[i].path(), accepts[a], "")
			if err == nil {
				err = b.cat.known(keys[i], a, false, i, r)
			}
			return true, err
		}
	})
	p.timed, p.round = time.Since(t0), true
	after, err := counters(base)
	if err != nil {
		return err
	}
	want := map[string]int64{"runs": 0, "disk_loads": int64(len(keys)), "disk_errs": 0}
	if err := regime("disk_load", nil, after, want); err != nil {
		p.failRegime(err)
	}
	return nil
}

// coldRound is what a client waits for on a miss: an empty store, the
// 23 fill-set keys once each, in fixed order, from one client
// (concurrent fills would time the scheduler's tie-breaking inside the
// fabric simulator, not the run). Every body is hashed; the golden
// experiments are asked for as text and compared with the golden files.
func (b *bench) coldRound(p *pass, base string) error {
	cl := newClient(b.tr)
	defer cl.close()
	t0 := time.Now()
	for i, id := range fillSet {
		k := key{id: id}
		a := i % len(accepts)
		if _, ok := b.ck.golden[id]; ok {
			a = acceptText
		}
		t := time.Now()
		r, err := cl.do("GET", base+k.path(), accepts[a], "")
		if err == nil {
			err = b.ck.fresh(k, a, r)
		}
		p.attempted++
		if err != nil {
			p.fail(1, err)
			continue
		}
		p.lat = append(p.lat, time.Since(t))
	}
	p.timed, p.round = time.Since(t0), true

	// Untimed: the golden experiments' csv must carry the same ETag on
	// every daemon of the run, however the daemon came by the result.
	cl.tr = nil
	for _, id := range goldenIDs {
		r, err := cl.do("GET", base+key{id: id}.path(), accepts[acceptCSV], "")
		if err == nil {
			err = b.ck.fresh(key{id: id}, acceptCSV, r)
		}
		if err != nil {
			p.fail(1, err)
		}
	}
	after, err := counters(base)
	if err != nil {
		return err
	}
	n := int64(len(fillSet))
	if err := regime("cold_fill", nil, after, map[string]int64{"runs": n, "disk_loads": 0, "disk_errs": 0}); err != nil {
		p.failRegime(err)
	}
	// Every fill must have reached the disk, in however many files the
	// store's layout uses per key (three today).
	if got := after["disk_entries"]; got < n {
		p.failRegime(fmt.Errorf("cold_fill regime check: counter disk_entries is %d, expected at least %d", got, n))
	}
	return nil
}

// runPass dispatches one pass. A hit-path pass is one unit of
// measurement, a round pass one unit per round.
func (b *bench) runPass(workload string, d time.Duration) ([]*pass, error) {
	switch workload {
	case "warm_get", "routed_warm", "async_sse":
		p, err := b.stream(workload, d)
		return []*pass{p}, err
	case "disk_load", "cold_fill":
		return b.rounds(workload, d)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
}
