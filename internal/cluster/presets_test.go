package cluster

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestPresetsSelfConsistent asserts every built-in platform model is
// usable as-is: positive topology and LogGP parameters, a finite
// bandwidth on every link class, and a valid attached memory-hierarchy
// model.
func TestPresetsSelfConsistent(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no presets")
	}
	for _, name := range names {
		m, ok := Lookup(name)
		if !ok {
			t.Fatalf("registered preset %q does not resolve", name)
		}
		if m.Name != name {
			t.Errorf("preset keyed %q has Name %q", name, m.Name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
			continue
		}
		if m.Topo.Nodes <= 0 || m.Topo.TotalCores() <= 0 {
			t.Errorf("preset %s has empty topology %v", name, m.Topo)
		}
		for _, pc := range []PathClass{Self, IntraSocket, IntraNode, InterNode} {
			lp := m.Links.For(pc)
			if lp.L < 0 || lp.O < 0 || lp.G < 0 || lp.GB < 0 {
				t.Errorf("preset %s %v has negative LogGP parameter %+v", name, pc, lp)
			}
			if pc != Self && lp.Bandwidth() <= 0 {
				t.Errorf("preset %s %v has non-positive bandwidth", name, pc)
			}
		}
		if m.Mem == nil {
			t.Errorf("preset %s has no memory-hierarchy model", name)
			continue
		}
		if err := m.Mem.Validate(); err != nil {
			t.Errorf("preset %s memory model invalid: %v", name, err)
		}
		if m.Mem.TLBReach() <= 0 {
			t.Errorf("preset %s has non-positive TLB reach", name)
		}
		// A hierarchy makes physical sense only if memory sits beyond
		// the last cache level and big memory extends TLB reach.
		last := m.Mem.Levels[len(m.Mem.Levels)-1]
		if m.Mem.MemLatency <= last.Latency {
			t.Errorf("preset %s: memory latency not above %s", name, last.Name)
		}
		pagedReach := m.Mem.WithMode(mem.Paged).TLBReach()
		bigReach := m.Mem.WithMode(mem.BigMemory).TLBReach()
		if bigReach <= pagedReach {
			t.Errorf("preset %s: big-memory reach %d not above paged reach %d", name, bigReach, pagedReach)
		}
		// On NUMA presets the remote side of the split must cost more
		// than local, and placement must actually move the modeled
		// latency at memory-resident working sets.
		if m.Mem.NUMA.Nodes > 1 {
			ws := 64 << 20
			local := m.Mem.Latency(ws, mem.BigMemory, mem.FirstTouch)
			remote := m.Mem.Latency(ws, mem.BigMemory, mem.Remote)
			if remote <= local {
				t.Errorf("preset %s: remote placement latency %g not above local %g", name, remote, local)
			}
		}
	}
}

// TestNUMAPresets pins the placement experiments' platform set: the
// fat four-socket node and the BG/P node expose a NUMA axis, while the
// commodity Harpertown presets (front-side-bus machines) stay UMA and
// must reproduce their pre-NUMA latencies under every policy.
func TestNUMAPresets(t *testing.T) {
	fat, ok := Lookup("fat-1n")
	if !ok {
		t.Fatal("fat-1n preset missing")
	}
	if fat.Mem.NUMA.Nodes != 4 {
		t.Errorf("fat-1n has %d NUMA nodes, want 4", fat.Mem.NUMA.Nodes)
	}
	bgp, ok := Lookup("bgp-64n")
	if !ok {
		t.Fatal("bgp-64n preset missing")
	}
	if got := bgp.Mem.NUMA.Nodes; got != 2 {
		t.Errorf("bgp-64n has %d NUMA nodes, want 2", got)
	}
	for _, name := range []string{"gige-8n", "ib-8n", "smp-1n", "ib-64n"} {
		preset, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s preset missing", name)
		}
		m := preset.Mem
		if m.NUMA.Nodes > 1 {
			t.Errorf("preset %s unexpectedly NUMA", name)
			continue
		}
		ws := 64 << 20
		base := m.WithMode(mem.Paged).LoadLatency(ws)
		for _, p := range mem.Placements {
			if got := m.Latency(ws, mem.Paged, p); got != base {
				t.Errorf("UMA preset %s under %s: %g != %g", name, p, got, base)
			}
		}
	}
}

// TestPresetFilesAreListed keeps the embedded directory and the listing
// order in step: every presets/*.json file is a listed preset, so a
// file cannot sit unreachable and a listed name cannot lack its file.
func TestPresetFilesAreListed(t *testing.T) {
	entries, err := fs.ReadDir(presetFiles, "presets")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(presetNames) {
		t.Errorf("presets/ holds %d files, the listing names %d presets", len(entries), len(presetNames))
	}
	for _, e := range entries {
		if _, ok := presetSpec(strings.TrimSuffix(e.Name(), ".json")); !ok {
			t.Errorf("presets/%s is not a listed preset", e.Name())
		}
	}
}

// presetFile returns the embedded spec file of a preset.
func presetFile(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := presetFiles.ReadFile("presets/" + name + ".json")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestPresetRoundTripsAsCustom registers each preset's file as a
// custom: a preset is a spec like any other, so the custom must
// resolve to the same machine — the same model JSON apart from Name,
// and the same capability tags.
func TestPresetRoundTripsAsCustom(t *testing.T) {
	defer PurgeCustoms()
	PurgeCustoms()
	for _, name := range Names() {
		s, err := ParseSpec(presetFile(t, name))
		if err != nil {
			t.Fatalf("%s: ParseSpec: %v", name, err)
		}
		custom, _ := RegisterCustom(s)
		cm, ok := Lookup(custom)
		if !ok {
			t.Fatalf("%s: registered as %s, which does not resolve", name, custom)
		}
		pm := Preset(name)
		if cm.Caps() != pm.Caps() {
			t.Errorf("%s: custom caps %v, preset caps %v", name, cm.Caps(), pm.Caps())
		}
		cm.Name = pm.Name
		cj, _ := json.Marshal(cm)
		pj, _ := json.Marshal(pm)
		if !bytes.Equal(cj, pj) {
			t.Errorf("%s: custom model differs from the preset:\n%s\n%s", name, cj, pj)
		}
	}
}

// TestPresetPanicsOnUnknownName pins Preset's contract: callers spell
// preset names in code, so a misspelling is a programming error.
func TestPresetPanicsOnUnknownName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Preset accepted a name that is not a preset")
		}
	}()
	Preset("no-such-platform")
}

// registerValidSpec registers validSpecText as a custom and returns
// its name.
func registerValidSpec(tb testing.TB) string {
	tb.Helper()
	s, err := ParseSpec([]byte(validSpecText))
	if err != nil {
		tb.Fatal(err)
	}
	name, _ := RegisterCustom(s)
	return name
}

// TestCustomLookupAllocatesLikeAPreset: both kinds build their model
// from a decoded spec under the name they were found by, so a custom's
// Lookup costs no more allocations than a preset's — it never
// re-encodes or re-hashes the spec.
func TestCustomLookupAllocatesLikeAPreset(t *testing.T) {
	defer PurgeCustoms()
	PurgeCustoms()
	custom := registerValidSpec(t)
	preset := testing.AllocsPerRun(100, func() { Lookup("ib-8n") })
	got := testing.AllocsPerRun(100, func() { Lookup(custom) })
	if got > preset {
		t.Errorf("a custom Lookup allocates %v times, a preset's %v", got, preset)
	}
}

func BenchmarkLookup(b *testing.B) {
	defer PurgeCustoms()
	PurgeCustoms()
	custom := registerValidSpec(b)
	for _, bc := range []struct{ name, platform string }{
		{"preset", "bgp-64n"},
		{"custom", custom},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := Lookup(bc.platform); !ok {
					b.Fatal("lookup missed")
				}
			}
		})
	}
}
