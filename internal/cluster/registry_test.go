package cluster

import "testing"

// TestRegistryNamesMatchModels pins the registry contract: every
// listed name resolves, the resolved model carries that exact name,
// and lookups alias nothing (mutating one does not leak into the
// next).
func TestRegistryNamesMatchModels(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty preset registry")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate preset name %q", name)
		}
		seen[name] = true
		m, ok := Lookup(name)
		if !ok {
			t.Errorf("Names lists %q but Lookup misses it", name)
			continue
		}
		if m.Name != name {
			t.Errorf("preset %q resolves to a model named %q", name, m.Name)
		}
		m.Placement = Cyclic
		m.Topo.Nodes = 1
		m2, _ := Lookup(name)
		if m2.Placement == Cyclic && m.Placement == Cyclic && m2 == m {
			t.Errorf("Lookup(%q) returned an aliased model", name)
		}
		if m2.Topo.Nodes == 1 && name != "smp-1n" && name != "fat-1n" {
			t.Errorf("Lookup(%q) leaked a mutation from a prior lookup", name)
		}
	}
	if _, ok := Lookup("no-such-platform"); ok {
		t.Error("Lookup resolved an unknown preset")
	}
}

// TestCapabilityTags pins each preset's derived tags so a topology or
// memory-model edit that silently changes an experiment's platform set
// fails here first.
func TestCapabilityTags(t *testing.T) {
	want := map[string]Capability{
		"gige-8n": CapMultiNode | CapMemModel,
		"ib-8n":   CapMultiNode | CapMemModel,
		"ib-64n":  CapMultiNode | CapMemModel,
		"smp-1n":  CapMemModel,
		"fat-1n":  CapMemModel | CapNUMA,
		"bgp-64n": CapMultiNode | CapMemModel | CapNUMA,
	}
	if len(want) != len(Names()) {
		t.Fatalf("test covers %d presets, registry has %d", len(want), len(Names()))
	}
	for name, caps := range want {
		m, ok := Lookup(name)
		if !ok {
			t.Errorf("preset %q missing", name)
			continue
		}
		if got := m.Caps(); got != caps {
			t.Errorf("preset %q caps = %v, want %v", name, got, caps)
		}
		if !m.Has(caps) {
			t.Errorf("preset %q does not satisfy its own caps", name)
		}
		if m.Has(caps | 1<<30) {
			t.Errorf("preset %q claims an unknown capability", name)
		}
	}
}

func TestNamesWith(t *testing.T) {
	multi := NamesWith(CapMultiNode)
	for _, name := range multi {
		if name == "smp-1n" || name == "fat-1n" {
			t.Errorf("single-node preset %q listed as multi-node", name)
		}
	}
	if len(multi) != 4 {
		t.Errorf("NamesWith(CapMultiNode) = %v, want 4 presets", multi)
	}
	numa := NamesWith(CapNUMA)
	if len(numa) != 2 {
		t.Errorf("NamesWith(CapNUMA) = %v, want [fat-1n bgp-64n]", numa)
	}
	if got := NamesWith(CapAny); len(got) != len(Names()) {
		t.Errorf("NamesWith(CapAny) = %v, want every preset", got)
	}
}

func TestCapabilityString(t *testing.T) {
	cases := map[Capability]string{
		CapAny:                               "any",
		CapMultiNode:                         "multi-node",
		CapMemModel | CapNUMA:                "mem-model+numa",
		CapMultiNode | CapMemModel | CapNUMA: "multi-node+mem-model+numa",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Capability(%#x).String() = %q, want %q", uint32(c), got, want)
		}
	}
}
