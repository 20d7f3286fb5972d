package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from the current output")

// TestPlatformSweep reads the Quick cell of every registered experiment
// on its default platform set and on every preset its capability
// declaration accepts — the presets × experiments matrix the registry
// refactor unlocked. Each cell must succeed, produce output, and (for
// platform-consuming experiments) mention the preset it ran on. Cells
// run in parallel; the whole sweep is a few registry smokes' worth of
// work, not one per preset.
//
// Each modeled cell's digest must also match its line in digests.txt,
// the table its experiment's fingerprint hashes. A changed output fails
// here until the table is rewritten on purpose:
//
//	go test ./internal/core -run '^TestPlatformSweep$' -update-golden
//
// and the rewritten line invalidates that experiment's cached results.
func TestPlatformSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("platform sweep skipped in -short mode")
	}
	// Experiments whose output never echoes the platform name: F4's
	// series are message sizes, F12's are protocol modes.
	nameless := map[string]bool{"F4": true, "F12": true}
	var (
		keys []string // "ID platform" of every modeled cell, in table order
		mu   sync.Mutex
		got  = map[string]string{} // key -> its digest line
	)
	t.Cleanup(func() { checkDigests(t, keys, got) })
	for _, e := range All() {
		for _, platform := range append([]string{""}, e.Platforms()...) {
			name := platform
			if name == "" {
				name = "default"
			}
			key := e.ID + " " + name
			if !hostTimed[e.ID] {
				keys = append(keys, key)
			}
			t.Run(e.ID+"/"+name, func(t *testing.T) {
				t.Parallel()
				r := cell(t, e.ID, platform)
				if r.Err != nil {
					t.Fatalf("%s on %s: %v", e.ID, name, r.Err)
				}
				out := r.Rec.Text()
				if out == "" {
					t.Fatalf("%s on %s produced no output", e.ID, name)
				}
				if platform != "" && !nameless[e.ID] && !strings.Contains(out, platform) {
					t.Errorf("%s on %s: output never names the platform:\n%s", e.ID, platform, out)
				}
				if hostTimed[e.ID] {
					return
				}
				// The text, then the sections as JSON: CSV renders from
				// the same sections.
				h := sha256.New()
				h.Write(r.Rec.Bytes())
				if err := r.Rec.Document().JSON(h); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				got[key] = fmt.Sprintf("%s %x\n", key, h.Sum(nil))
				mu.Unlock()
			})
		}
	}
}

// checkDigests compares the sweep's digest lines with digests.txt, or
// rewrites the table under -update-golden. A sweep that did not digest
// every modeled cell (a -run filter, a failed cell) checks nothing.
func checkDigests(t *testing.T, keys []string, got map[string]string) {
	if len(got) != len(keys) {
		t.Logf("digested %d of %d modeled cells: digests.txt not checked", len(got), len(keys))
		return
	}
	var table strings.Builder
	for _, key := range keys {
		table.WriteString(got[key])
	}
	const path = "digests.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != string(want) {
		t.Errorf("modeled outputs drifted from %s (-update-golden records an intended change):\n%s",
			path, diffLines(string(want), table.String()))
	}
}

// registerEDR registers examples/platforms/edr-16n.json with its node
// count set to nodes and returns the custom platform's name.
func registerEDR(t *testing.T, nodes int) string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "platforms", "edr-16n.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	spec.Topology.Nodes = nodes
	if spec, err = cluster.ParseSpec(spec.Canonical()); err != nil {
		t.Fatal(err)
	}
	name, _ := cluster.RegisterCustom(spec)
	return name
}

// TestCeilingSpecRunsEveryExperiment runs every experiment a custom
// spec at the core ceiling accepts (edr-16n.json on 64 nodes: 1 024
// cores) at Quick scale, two at a time, as charhpc -j 2 would. Each must
// succeed with output; F14, which measures one pair per few cores, is
// the one whose work grows with the spec.
func TestCeilingSpecRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("ceiling spec skipped in -short mode")
	}
	defer cluster.PurgeCustoms()
	name := registerEDR(t, 64)
	if m, _ := cluster.Lookup(name); m.Topo.TotalCores() != 1024 {
		t.Fatalf("ceiling spec has %d cores, want 1024", m.Topo.TotalCores())
	}
	var ids []string
	for _, e := range All() {
		if e.CheckPlatform(name) == nil {
			ids = append(ids, e.ID)
		}
	}
	results, err := RunParallel(ids, Request{Scale: Quick, Platform: name}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("%s on the ceiling spec: %v", res.Experiment.ID, res.Err)
		} else if len(res.Rec.Bytes()) == 0 {
			t.Errorf("%s on the ceiling spec wrote no output", res.Experiment.ID)
		}
	}
}
