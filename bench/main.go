// Command bench is this repository's benchmark: it builds the real
// charhpcd and charhpc-router, runs them as processes on loopback
// ports, drives them from one seeded closed-loop load generator,
// checks every response, and prints every metric by name with its
// unit. BENCHMARK.json at the repository root names the workloads,
// metrics and regression bounds; README.md in this directory explains
// how to read the output.
//
//	go run -C bench repro/bench -workload warm_get -seed 1 -seconds 10 -trace 0
//	go run -C bench repro/bench -out /tmp/a.json            # all five workloads + layer table
//	go run -C bench repro/bench -compare /tmp/a.json /tmp/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// passesPerWorkload is how often each workload is set up and measured
// in one run. A metric's value is the median of its pass values, so
// two disturbed passes do not decide it, and setup_s is a median of
// several set-ups.
const passesPerWorkload = 5

// config is one invocation.
type config struct {
	workloads []string
	seed      int64
	seconds   float64 // measured seconds per workload, split over its passes
	passes    int
	traced    bool // also the layer table and the traced replay
	layerReps int
	traceOut  string
}

// clientsPerCPU sizes the closed loop. Eight callers per CPU keep every
// core busy, so throughput is bounded by the work a request costs. With
// one caller per CPU the cores idle between requests and the numbers
// follow the VM's wake-up latency instead: on the 2-core sandbox they
// wander between two modes a quarter apart.
const clientsPerCPU = 8

// metric is one reported number. Spread is the interquartile range over
// the median of the passes (or rounds) it is the median of, Samples the
// operations behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Units     int               `json:"units"` // passes (hit path) or rounds the medians are over
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
}

// report is the document -out writes and -compare reads.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Passes    int                        `json:"passes"`
	Clients   int                        `json:"clients"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Layers    map[string]metric          `json:"per_layer,omitempty"`
	TraceFile string                     `json:"trace_file,omitempty"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: warm_get, routed_warm, async_sse, disk_load, cold_fill, or all")
	seed := flag.Int64("seed", 1, "seed of the request order; the daemons see only the generated requests")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload, split over its five passes")
	trace := flag.Int("trace", 0, "1 adds the per-layer table and the traced in-process replay; with -workload all it is always on")
	layerReps := flag.Int("layer-reps", 3, "timed batches behind each in-process layer metric (median reported)")
	out := flag.String("out", "", "also write the full report as JSON to this file")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this file (default: a file under .bench_build)")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 2 if any metric got worse")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	workloads := []string{*workload}
	if *workload == "all" {
		workloads = workloadNames
		*trace = 1
	}
	rep, err := run(config{workloads: workloads, seed: *seed, seconds: *seconds, passes: passesPerWorkload,
		traced: *trace == 1, layerReps: *layerReps, traceOut: *traceOut})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printTable(os.Stdout, rep)
	if *out != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	correct := true
	if *workload != "all" {
		// The driver's contract: the last line of standard output is
		// one JSON object for the one workload that ran.
		correct = printResultLine(os.Stdout, rep, *workload, *trace == 1)
	} else {
		for _, w := range rep.Workloads {
			correct = correct && w.Failed == 0
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures the given workloads: passes interleaved so machine
// drift hits all workloads alike, then (traced) the in-process layer
// table and replay with no daemon running.
func run(cfg config) (rep *report, err error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	for _, w := range cfg.workloads {
		if !slices.Contains(workloadNames, w) {
			return nil, fmt.Errorf("unknown workload %q", w)
		}
	}
	h, err := newHarness()
	if err != nil {
		return nil, err
	}
	// Children die with the harness on SIGINT and SIGTERM too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			h.close()
			os.Exit(130)
		}
	}()
	defer func() {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}()

	ck, err := newChecker(h.root)
	if err != nil {
		return nil, err
	}
	b := &bench{h: h, ck: ck, seed: cfg.seed, clients: clientsPerCPU * runtime.NumCPU()}
	passes := map[string][]*pass{}
	passTime := time.Duration(cfg.seconds / float64(cfg.passes) * float64(time.Second))
	for i := 0; i < cfg.passes; i++ {
		for _, w := range cfg.workloads {
			ps, err := b.runPass(w, passTime)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", w, i+1, err)
			}
			for _, p := range ps {
				if p.firstErr != nil {
					fmt.Fprintf(os.Stderr, "bench: %s pass %d: %d of %d operations failed: %v\n", w, i+1, p.failed, p.attempted, p.firstErr)
				}
			}
			passes[w] = append(passes[w], ps...)
		}
	}
	rep = &report{Seed: cfg.seed, Seconds: cfg.seconds, Passes: cfg.passes, Clients: b.clients, Workloads: map[string]*workloadReport{}}
	for _, w := range cfg.workloads {
		rep.Workloads[w] = summarize(passes[w], cfg.traced)
	}
	if cfg.traced {
		rep.Layers = map[string]metric{
			"harness.build_s":    {Value: h.buildS, Unit: "s"},
			"harness.populate_s": {Value: b.populateS, Unit: "s"},
		}
		if err := layerTable(rep.Layers, h, cfg.layerReps); err != nil {
			return nil, fmt.Errorf("layer table: %w", err)
		}
		rep.TraceFile = cfg.traceOut
		if rep.TraceFile == "" {
			rep.TraceFile = filepath.Join(h.root, ".bench_build", "trace.json")
		}
		if err := tracedRun(rep, b, cfg.workloads, rep.TraceFile); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return rep, nil
}

// summarize folds a workload's passes into its report: each metric is
// the median of the passes that have it, a pass that failed its regime
// check contributing failures but no values.
func summarize(passes []*pass, traced bool) *workloadReport {
	wr := &workloadReport{Units: len(passes), EndToEnd: map[string]metric{}}
	vals := map[string][]float64{}
	samples := 0
	for _, p := range passes {
		wr.Attempted += p.attempted
		wr.Failed += p.failed
		if p.firstErr != nil {
			wr.Errors = append(wr.Errors, p.firstErr.Error())
		}
		samples += len(p.lat)
		for name, v := range p.values() {
			if !math.IsNaN(v) {
				vals[name] = append(vals[name], v)
			}
		}
	}
	for name, unit := range endToEndUnits {
		wr.EndToEnd[name] = metric{Value: finite(median(vals[name])), Unit: unit, Spread: spread(vals[name]), Samples: samples}
	}
	if traced {
		wr.Layers = map[string]metric{}
		for name, unit := range processViewUnits {
			wr.Layers[name] = metric{Value: finite(median(vals[name])), Unit: unit, Spread: spread(vals[name]), Samples: samples}
		}
	}
	return wr
}

// The names below are the ones BENCHMARK.json declares; the smoke test
// holds the two lists to each other.
var endToEndUnits = map[string]string{
	"req_per_s":      "1/s",
	"p50_us":         "us",
	"p90_us":         "us",
	"cpu_us_per_req": "us",
	"setup_s":        "s",
}

// processViewUnits are the per-layer metrics taken from outside the
// processes (/proc, wall clock) during the same passes.
var processViewUnits = map[string]string{
	"charhpcd.cpu_us_per_req": "us",
	"charhpcd.rss_mb":         "MiB",
	"router.cpu_us_per_req":   "us",
	"router.rss_mb":           "MiB",
	"loadgen.cpu_us_per_req":  "us",
	"loadgen.p99_us":          "us",
	"loadgen.round_ms":        "ms",
	"charhpcd.spawn_ready_ms": "ms",
}

// values turns one pass into metric values. A pass with no verified
// operation has none.
func (p *pass) values() map[string]float64 {
	ok := p.attempted - p.failed
	if ok <= 0 || len(p.lat) == 0 {
		return nil
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	// A round asks for each key of a fixed set once, so its
	// percentiles are order statistics of that set (p90 of cold_fill is
	// the third slowest experiment), not estimates of a tail; the
	// sample-count rule applies to the hit-path passes, which sample.
	pct := tail
	if p.round {
		pct = func(sorted []time.Duration, q float64) float64 {
			v, _ := percentile(sorted, q)
			return micros(v)
		}
	}
	v := map[string]float64{
		"req_per_s":               float64(ok) / p.timed.Seconds(),
		"p50_us":                  pct(p.lat, 0.50),
		"p90_us":                  pct(p.lat, 0.90),
		"cpu_us_per_req":          micros(p.shardCPU+p.routerCPU) / float64(ok),
		"setup_s":                 median(seconds(p.setup)),
		"charhpcd.cpu_us_per_req": micros(p.shardCPU) / float64(ok),
		"charhpcd.rss_mb":         p.shardRSS,
		"router.cpu_us_per_req":   micros(p.routerCPU) / float64(ok),
		"router.rss_mb":           p.routerRSS,
		"loadgen.cpu_us_per_req":  micros(p.loadgenCPU) / float64(ok),
		"loadgen.p99_us":          pct(p.lat, 0.99),
		"charhpcd.spawn_ready_ms": median(seconds(p.ready)) * 1e3,
	}
	if p.round {
		v["loadgen.round_ms"] = p.timed.Seconds() * 1e3
	}
	return v
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// finite replaces the NaN of a metric that has no value on this
// workload (router.* without a router) by 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
