package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from the current output")

// TestPlatformSweep runs every registered experiment on every preset
// its capability declaration accepts, at Quick scale — the presets ×
// experiments matrix the registry refactor unlocked. Each cell must
// succeed, produce output, and (for platform-consuming experiments)
// mention the preset it ran on. Cells run in parallel; the whole sweep
// is a few registry smokes' worth of work, not one per preset.
func TestPlatformSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("platform sweep skipped in -short mode")
	}
	// Experiments whose output never echoes the platform name: F4
	// renames its model ("-narrow"), F12's series are protocol modes.
	nameless := map[string]bool{"F4": true, "F12": true}
	for _, e := range All() {
		for _, platform := range e.Platforms() {
			e, platform := e, platform
			t.Run(e.ID+"/"+platform, func(t *testing.T) {
				t.Parallel()
				var b bytes.Buffer
				if err := e.Run(&b, Request{Scale: Quick, Platform: platform}); err != nil {
					t.Fatalf("%s on %s: %v", e.ID, platform, err)
				}
				if b.Len() == 0 {
					t.Fatalf("%s on %s produced no output", e.ID, platform)
				}
				if !nameless[e.ID] && !strings.Contains(b.String(), platform) {
					t.Errorf("%s on %s: output never names the platform:\n%s", e.ID, platform, b.String())
				}
			})
		}
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
