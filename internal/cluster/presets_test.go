package cluster

import (
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
