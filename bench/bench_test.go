package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 3 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// statistics.quantiles([90, 100, 110, 120, 200], n=4) is
	// [95, 110, 160]; the outlier moves the spread by less than its size.
	if got, want := spread([]float64{200, 90, 110, 100, 120}), (160.0-95)/110; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one pass = %v, want 0", got)
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond
	}
	v, beyond := percentile(lat, 0.90)
	if v != 90*time.Microsecond || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90µs with 10", v, beyond)
	}
	if got := tail(lat, 0.90); got != 90 {
		t.Errorf("tail(p90) = %v, want 90", got)
	}
	// 1 sample beyond p99: fewer than ten, so it is not reported.
	if got := tail(lat, 0.99); !math.IsNaN(got) {
		t.Errorf("tail(p99) of 100 samples = %v, want NaN", got)
	}
	if got := tail(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("tail of nothing = %v, want NaN", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "loadgen.request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "shard.ServeHTTP", Start: 10, End: 60},
		// Overlaps span 1 for 20 and runs 10 past the parent's end.
		{ID: 2, Parent: 0, Name: "shard.ServeHTTP", Start: 40, End: 110},
		{ID: 3, Parent: 1, Name: "serve.ServeHTTP", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	// Root: 100 minus the union [10,100) of its children = 10.
	if self["loadgen"] != 10 {
		t.Errorf("loadgen self = %d, want 10", self["loadgen"])
	}
	// Span 1: 50 minus its child's 10; span 2: 70, no children.
	if self["shard"] != 40+70 {
		t.Errorf("shard self = %d, want 110", self["shard"])
	}
	if self["serve"] != 10 {
		t.Errorf("serve self = %d, want 10", self["serve"])
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(v, spread float64) metric { return metric{Value: v, Spread: spread} }
	for _, tc := range []struct {
		name   string
		a, b   metric
		higher bool
		want   string
	}{
		{"within bound", m(100, 0.02), m(105, 0.02), false, "same"},
		{"slower latency", m(100, 0.02), m(130, 0.02), false, "worse"},
		{"faster latency", m(100, 0.02), m(70, 0.02), false, "better"},
		{"lower throughput", m(1000, 0.02), m(700, 0.02), true, "worse"},
		{"higher throughput", m(1000, 0.02), m(1300, 0.02), true, "better"},
		// Beyond the bound, but the passes of each run spread wider
		// than the bound and overlap: nothing can be said.
		{"noisy overlap", m(100, 0.5), m(125, 0.5), false, "unresolved"},
		{"noisy but apart", m(100, 0.3), m(200, 0.3), false, "worse"},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps float64) string {
		rep := report{Workloads: map[string]*workloadReport{"warm_get": {EndToEnd: map[string]metric{}}}}
		for name := range endToEndUnits {
			rep.Workloads["warm_get"].EndToEnd[name] = metric{Value: 100, Spread: 0.01}
		}
		rep.Workloads["warm_get"].EndToEnd["req_per_s"] = metric{Value: rps, Spread: 0.01}
		b, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse := write("a.json", 1000), write("same.json", 1010), write("worse.json", 500)
	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 {
		t.Errorf("comparing equal runs: exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, worse); code != 2 || !strings.Contains(out.String(), "worse") {
		t.Errorf("comparing against a halved throughput: exit %d, want 2\n%s", code, out.String())
	}
}

// TestSmoke runs the whole harness once, briefly, against spawned
// binaries, and holds its output and BENCHMARK.json to each other.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real daemons and runs every experiment")
	}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	rep, err := run(config{workloads: workloadNames, seed: 1, seconds: 0.5, passes: 1, traced: true, layerReps: 1, traceOut: traceOut})
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}

	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if got := sortedKeys(rep.Workloads); !slices.Equal(got, sorted(declared)) {
		t.Errorf("workloads run %v, BENCHMARK.json declares %v", got, sorted(declared))
	}
	var wantE2E, wantLayer []string
	for _, m := range decl.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range decl.PerLayer {
		wantLayer = append(wantLayer, m.Name+" "+m.Unit)
	}
	for name, wr := range rep.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, wr.Failed, wr.Attempted, wr.Errors)
		}
		if got := namesAndUnits(wr.EndToEnd); !slices.Equal(got, sorted(wantE2E)) {
			t.Errorf("%s end-to-end metrics:\n got  %v\n want %v", name, got, sorted(wantE2E))
		}
		layers := map[string]metric{}
		for k, v := range wr.Layers {
			layers[k] = v
		}
		for k, v := range rep.Layers {
			layers[k] = v
		}
		if got := namesAndUnits(layers); !slices.Equal(got, sorted(wantLayer)) {
			t.Errorf("%s per-layer metrics differ from BENCHMARK.json:\n only in output %v\n only declared  %v",
				name, minus(got, wantLayer), minus(wantLayer, got))
		}
		for k, m := range wr.EndToEnd {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s = %v, want a positive finite number", name, k, m.Value)
			}
		}
	}
	for k, m := range rep.Layers {
		if !(m.Value > 0) || math.IsInf(m.Value, 0) {
			t.Errorf("layer metric %s = %v, want a positive finite number", k, m.Value)
		}
	}

	// The traced run wrote spans that carry what a reader needs.
	b, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var file []struct {
		Workload string
		Spans    []map[string]any
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file) != len(workloadNames) {
		t.Errorf("trace file has %d workloads, want %d", len(file), len(workloadNames))
	}
	for _, w := range file {
		if len(w.Spans) == 0 {
			t.Errorf("%s: no spans", w.Workload)
			continue
		}
		for _, field := range []string{"name", "start_ns", "end_ns", "parent", "request_id"} {
			if _, ok := w.Spans[0][field]; !ok {
				t.Errorf("%s: span lacks %q", w.Workload, field)
			}
		}
	}

	// Nothing is left behind: run's harness reported no survivor (it
	// would have been an error above) and the work directory is gone.
	left, _ := filepath.Glob(filepath.Join(mustRoot(t), ".bench_build", "run-*"))
	if len(left) != 0 {
		t.Errorf("work directories left behind: %v", left)
	}
}

func mustRoot(t *testing.T) string {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func namesAndUnits(ms map[string]metric) []string {
	var out []string
	for k, m := range ms {
		out = append(out, k+" "+m.Unit)
	}
	return sorted(out)
}

func sorted(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

func minus(a, b []string) []string {
	in := map[string]bool{}
	for _, x := range b {
		in[x] = true
	}
	var out []string
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}
