package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// printTable prints every metric by name with its unit: per workload
// the end-to-end metrics and the process view, then the in-process
// layer table.
func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "bench: seed %d, %.1f s per workload in %d passes, %d closed-loop clients\n",
		rep.Seed, rep.Seconds, rep.Passes, rep.Clients)
	for _, name := range workloadNames {
		wr, ok := rep.Workloads[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s: attempted %d, succeeded %d, failed %d\n", name, wr.Attempted, wr.Attempted-wr.Failed, wr.Failed)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  FAILED: %s\n", e)
		}
		printMetrics(w, wr.EndToEnd)
		printMetrics(w, wr.Layers)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintln(w, "\nper layer (in process, no daemon running):")
		printMetrics(w, rep.Layers)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "\nspans of the traced run: %s\n", rep.TraceFile)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		m := ms[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " spread %5.1f%%  n=%d", m.Spread*100, m.Samples)
		}
		fmt.Fprintln(w)
	}
}

// printResultLine prints the one-line result the benchmark contract
// asks for: the end-to-end metrics untraced, the per-layer metrics
// traced. It reports whether every output was correct.
func printResultLine(w io.Writer, rep *report, workload string, traced bool) bool {
	wr := rep.Workloads[workload]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	add := func(ms map[string]metric) {
		for name, m := range ms {
			metrics[name] = value{m.Value, m.Unit}
		}
	}
	if traced {
		add(wr.Layers)
		add(rep.Layers)
	} else {
		add(wr.EndToEnd)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
	return wr.Failed == 0
}
