package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// span is one recorded interval at a layer boundary. Spans of one HTTP
// request share the X-Request-ID the load generator minted, which the
// router already reuses on the shard hop.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Request string `json:"request_id"`
	Start   int64  `json:"start_ns"` // since the traced pass began
	End     int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced pass in memory. Every method is
// safe on a nil tracer and then does nothing, so the workloads run the
// same code traced and untraced.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	seq     int // request IDs minted
	spans   []span
	open    map[string][]int // request ID -> its open spans, innermost last
	filling map[key]string   // experiment being served -> request ID, to parent core.Run
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[string][]int{}, filling: map[key]string{}}
}

func (tr *tracer) start(name, rid string) int {
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parent := -1
	if st := tr.open[rid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Request: rid, Start: now})
	tr.open[rid] = append(tr.open[rid], id)
	return id
}

func (tr *tracer) end(id int) {
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sp := &tr.spans[id]
	sp.End = now
	st := tr.open[sp.Request]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(tr.open, sp.Request)
	} else {
		tr.open[sp.Request] = st
	}
}

// request opens the root span of one outgoing request and stamps the
// request with a fresh ID; the returned func closes the span.
func (tr *tracer) request(req *http.Request) func() {
	if tr == nil {
		return func() {}
	}
	tr.mu.Lock()
	tr.seq++
	rid := "bench-" + strconv.Itoa(tr.seq)
	tr.mu.Unlock()
	req.Header.Set("X-Request-ID", rid)
	id := tr.start("loadgen.request", rid)
	return func() { tr.end(id) }
}

// wrap records one span around each request h serves. Requests without
// an ID (health probes, counter reads) are not part of the workload and
// pass through unrecorded.
func (tr *tracer) wrap(name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			h.ServeHTTP(w, r)
			return
		}
		if id, ok := strings.CutPrefix(r.URL.Path, "/experiments/"); ok {
			k := key{id, r.URL.Query().Get("platform")}
			tr.mu.Lock()
			tr.filling[k] = rid
			tr.mu.Unlock()
		}
		sp := tr.start(name, rid)
		defer tr.end(sp)
		h.ServeHTTP(w, r)
	})
}

// runFunc is serve's Config.RunFunc: nil untraced, which leaves serve
// on its production path; traced, core.Run inside a span parented to
// the request that is waiting for this experiment.
func (tr *tracer) runFunc() func(core.Experiment, core.Request) core.Result {
	if tr == nil {
		return nil
	}
	return func(e core.Experiment, r core.Request) core.Result {
		tr.mu.Lock()
		rid := tr.filling[key{e.ID, r.Platform}]
		tr.mu.Unlock()
		sp := tr.start("core.Run", rid)
		defer tr.end(sp)
		return core.Run(e, r)
	}
}

// selfTimes adds up, per layer (the span name up to the dot), each
// span's duration minus the part of it its children cover. Children
// may overlap each other and are clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := map[string]time.Duration{}
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		layer, _, _ := strings.Cut(sp.Name, ".")
		self[layer] += time.Duration(sp.End - sp.Start - covered)
	}
	return self
}

var discardLog = obs.NewLogger(io.Discard, obs.FormatText)

// inprocDaemon is charhpcd's handler in this process, built from the
// same public constructors cmd/charhpcd uses, access log on as in the
// shipped program.
func (b *bench) inprocDaemon(name, cacheDir string) (*server, error) {
	t0 := time.Now()
	st, err := diskcache.Open(cacheDir, diskcache.Fingerprints{Global: core.Fingerprint(), PerID: core.Fingerprints()}, 0)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Store: st, RunFunc: b.tr.runFunc(), JobsHistory: jobsHistory, AccessLog: discardLog})
	ts := httptest.NewServer(b.tr.wrap("serve.ServeHTTP", srv))
	return &server{name: name, url: ts.URL, ready: time.Since(t0), shut: ts.Close}, nil
}

// inprocRouter is charhpc-router's handler in this process.
func (b *bench) inprocRouter(shards []string) (*server, error) {
	t0 := time.Now()
	rt, err := shard.New(shard.Config{Shards: shards, AccessLog: discardLog})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(b.tr.wrap("shard.ServeHTTP", rt))
	return &server{name: "router", url: ts.URL, ready: time.Since(t0), shut: func() { ts.Close(); rt.Close() }}, nil
}

// replayTime is how long a workload is replayed in process, each way;
// a cold_fill round is longer than that, so it is replayed once.
const replayTime = 500 * time.Millisecond

// tracedRun replays each workload against the in-process stack, once
// with the middleware off and once with it on, from one client so a
// span's self time is path length and not waiting for a core. The
// difference between the two replays is the tracing overhead; the
// spans of the second give each layer's self time per request. A
// layer's self time includes the hop to the next one: loopback and
// net/http client time under shard are shard's.
func tracedRun(rep *report, b *bench, workloads []string, out string) error {
	type traced struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var file []traced
	ib := &bench{h: b.h, ck: b.ck, seed: b.seed, clients: 1, inproc: true}
	for _, w := range workloads {
		var rate [2]float64
		for i := range rate {
			ib.tr = nil
			if i == 1 {
				ib.tr = newTracer()
			}
			ps, err := ib.runPass(w, replayTime)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			var rates []float64
			for _, p := range ps {
				if p.firstErr != nil {
					return fmt.Errorf("%s: %w", w, p.firstErr)
				}
				rates = append(rates, p.values()["req_per_s"])
			}
			rate[i] = median(rates)
		}
		spans := ib.tr.spans
		roots := 0
		for _, sp := range spans {
			if sp.Parent < 0 {
				roots++
			}
		}
		self := selfTimes(spans)
		layers := rep.Workloads[w].Layers
		for _, layer := range []string{"loadgen", "shard", "serve", "core"} {
			layers["trace."+layer+"_self_us"] = metric{Value: micros(self[layer]) / float64(roots), Unit: "us", Samples: roots}
		}
		layers["trace.overhead_pct"] = metric{Value: (rate[0]/rate[1] - 1) * 100, Unit: "%", Samples: roots}
		file = append(file, traced{w, spans})
	}
	buf, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}
