package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles is bench -compare: for every (end-to-end metric,
// workload) of two -out files it prints both values, the relative
// change, both spreads, the bound from BENCHMARK.json and a verdict.
// It returns the exit code: 2 if anything got worse, 1 if the files
// cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	decl, errD := readDeclared()
	for _, err := range []error{errA, errB, errD} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench -compare:", err)
			return 1
		}
	}
	worse := false
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A", "B", "change", "spreadA", "spreadB", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range decl.EndToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(ma, mb, d.Better == "higher", d.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				name, d.Name, ma.Value, mb.Value, (mb.Value/ma.Value-1)*100, ma.Spread*100, mb.Spread*100, d.Bound*100, v)
		}
		if wb.Failed > wa.Failed {
			worse = true
			fmt.Fprintf(w, "%-12s failed operations rose from %d to %d: worse\n", name, wa.Failed, wb.Failed)
		}
	}
	if worse {
		return 2
	}
	return 0
}

// verdict judges B against A. Within the bound either way the metric
// is the same. Beyond it, the change is believed only when the two
// runs' interquartile ranges (value x (1 +- spread/2)) do not overlap; a
// change larger than the bound that the spreads could explain is
// unresolved.
func verdict(a, b metric, higherIsBetter bool, bound float64) string {
	if a.Value == 0 {
		return "unresolved"
	}
	change := b.Value/a.Value - 1
	if higherIsBetter {
		change = -change
	}
	// change > 0 now means B is worse.
	if change <= bound && change >= -bound {
		return "same"
	}
	loA, hiA := a.Value*(1-a.Spread/2), a.Value*(1+a.Spread/2)
	loB, hiB := b.Value*(1-b.Spread/2), b.Value*(1+b.Spread/2)
	if loA <= hiB && loB <= hiA && (a.Spread > bound || b.Spread > bound) {
		return "unresolved"
	}
	if change > 0 {
		return "worse"
	}
	return "better"
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// declared is the part of BENCHMARK.json the harness reads back: the
// names, directions and bounds are declared there and nowhere else.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared() (*declared, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	d := &declared{}
	return d, json.Unmarshal(b, d)
}
