package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/mem"
)

// validSpecJSON returns a complete, valid custom-platform document.
// Callers mutate the decoded map to probe individual validation rules.
func validSpecJSON() map[string]any {
	var m map[string]any
	if err := json.Unmarshal([]byte(validSpecText), &m); err != nil {
		panic(err)
	}
	return m
}

const validSpecText = `{
  "label": "test quad-node xeon",
  "topology": {"nodes": 4, "sockets_per_node": 2, "cores_per_socket": 4},
  "links": {
    "self":         {"latency_s": 1e-7, "overhead_s": 1e-7, "gap_s": 1e-8, "bandwidth_bytes_per_s": 12e9},
    "intra_socket": {"latency_s": 3e-7, "overhead_s": 2e-7, "gap_s": 2e-8, "bandwidth_bytes_per_s": 6e9},
    "intra_node":   {"latency_s": 6e-7, "overhead_s": 2e-7, "gap_s": 3e-8, "bandwidth_bytes_per_s": 4e9},
    "inter_node":   {"latency_s": 2e-5, "overhead_s": 1e-6, "gap_s": 1e-6, "bandwidth_bytes_per_s": 1.2e8}
  },
  "mem_bw_per_socket_bytes_per_s": 6.4e9,
  "mem_bw_per_core_bytes_per_s": 2.5e9,
  "flops_per_core": 9.6e9,
  "mem": {
    "name": "test-xeon",
    "levels": [
      {"name": "L1", "capacity_bytes": 32768, "latency_s": 1.2e-9},
      {"name": "L2", "capacity_bytes": 262144, "latency_s": 4.5e-9},
      {"name": "L3", "capacity_bytes": 8388608, "latency_s": 1.4e-8}
    ],
    "mem_latency_s": 7.5e-8,
    "tlb": {"entries": 512, "miss_cost_s": 2.2e-8},
    "page_bytes": 4096,
    "large_page_bytes": 2097152,
    "page_fault_cost_s": 1.5e-6,
    "numa": {"nodes": 2, "remote_latency_s": 1.25e-7, "remote_tlb_cost_s": 3e-8}
  }
}`

func marshal(t *testing.T, m map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecText))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	name := s.Name()
	if !IsCustomName(name) || len(name) != len(CustomPrefix)+12 {
		t.Fatalf("bad custom name %q", name)
	}
	m := s.Model()
	if m.Name != name {
		t.Fatalf("model name %q != spec name %q", m.Name, name)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("built model invalid: %v", err)
	}
	want := CapMultiNode | CapMemModel | CapNUMA
	if m.Caps() != want {
		t.Fatalf("caps = %v, want %v", m.Caps(), want)
	}
	// Bandwidth converts to gap-per-byte.
	if got := m.Links.InterNode.GB; got != 1/1.2e8 {
		t.Fatalf("inter-node GB = %g, want %g", got, 1/1.2e8)
	}
	// Mem hierarchy survives the round trip.
	if m.Mem == nil || len(m.Mem.Levels) != 3 || m.Mem.NUMA.Nodes != 2 {
		t.Fatalf("mem model mangled: %+v", m.Mem)
	}
	if m.Mem.Mode != mem.Paged {
		t.Fatalf("default mode = %v, want paged", m.Mem.Mode)
	}
}

func TestSpecNameCanonical(t *testing.T) {
	s1, err := ParseSpec([]byte(validSpecText))
	if err != nil {
		t.Fatal(err)
	}
	// Same document with reordered keys, extra whitespace, and the
	// default placement made explicit must hash identically.
	m := validSpecJSON()
	m["placement"] = "block"
	reordered, err := json.MarshalIndent(m, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Name() != s2.Name() {
		t.Fatalf("equivalent specs hash differently: %q vs %q", s1.Name(), s2.Name())
	}
	// A parameter change is a different machine, so a different name.
	m["flops_per_core"] = 2 * 9.6e9
	s3, err := ParseSpec(marshal(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if s3.Name() == s1.Name() {
		t.Fatal("different specs share a name")
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m map[string]any)
		want   string
	}{
		{"unknown field", func(m map[string]any) { m["turbo"] = true }, "unknown field"},
		{"negative latency", func(m map[string]any) {
			m["links"].(map[string]any)["inter_node"].(map[string]any)["latency_s"] = -1e-6
		}, "negative LogGP"},
		{"negative bandwidth", func(m map[string]any) {
			m["links"].(map[string]any)["inter_node"].(map[string]any)["bandwidth_bytes_per_s"] = -1.0
		}, "negative LogGP"},
		{"zero flops", func(m map[string]any) { m["flops_per_core"] = 0 }, "non-positive"},
		{"zero mem bandwidth", func(m map[string]any) { m["mem_bw_per_socket_bytes_per_s"] = 0 }, "non-positive"},
		{"zero topology", func(m map[string]any) {
			m["topology"].(map[string]any)["nodes"] = 0
		}, "invalid topology"},
		{"bad placement", func(m map[string]any) { m["placement"] = "diagonal" }, "unknown placement"},
		{"bad mem mode", func(m map[string]any) {
			m["mem"].(map[string]any)["mode"] = "virtual"
		}, "unknown memory mode"},
		{"non-ascending levels", func(m map[string]any) {
			levels := m["mem"].(map[string]any)["levels"].([]any)
			levels[1].(map[string]any)["capacity_bytes"] = 1024
		}, "not ascending"},
		{"memory faster than cache", func(m map[string]any) {
			m["mem"].(map[string]any)["mem_latency_s"] = 1e-9
		}, "not above last level"},
		{"zero TLB", func(m map[string]any) {
			m["mem"].(map[string]any)["tlb"].(map[string]any)["entries"] = 0
		}, "invalid TLB"},
		{"remote not above local", func(m map[string]any) {
			m["mem"].(map[string]any)["numa"].(map[string]any)["remote_latency_s"] = 1e-9
		}, "not above local"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := validSpecJSON()
			tc.mutate(m)
			_, err := ParseSpec(marshal(t, m))
			if err == nil {
				t.Fatal("ParseSpec accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// exampleSpec is the platform document the README walks through.
const exampleSpec = "../../examples/platforms/edr-16n.json"

// The ceilings must not rename the documented example: its canonical
// bytes are what persisted stores and -platform-dir files are keyed by.
func TestExampleSpecKeepsItsName(t *testing.T) {
	doc, err := os.ReadFile(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(doc)
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", exampleSpec, err)
	}
	if got, want := s.Name(), "custom-35deab5c5526"; got != want {
		t.Fatalf("%s registers as %s, want %s", exampleSpec, got, want)
	}
}

// A custom spec is bounded work: each ceiling accepts its limit and
// rejects limit + 1 with a message naming the field and the limit.
func TestParseSpecCeilings(t *testing.T) {
	topo := func(nodes, sockets, cores int) func(map[string]any) {
		return func(m map[string]any) {
			m["topology"] = map[string]any{"nodes": nodes, "sockets_per_node": sockets, "cores_per_socket": cores}
		}
	}
	memField := func(path string, v any) func(map[string]any) {
		return func(m map[string]any) {
			mm := m["mem"].(map[string]any)
			if sub, field, ok := strings.Cut(path, "."); ok {
				mm[sub].(map[string]any)[field] = v
			} else {
				mm[path] = v
			}
		}
	}
	levels := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = map[string]any{"name": fmt.Sprintf("L%d", i+1), "capacity_bytes": 1024 << i, "latency_s": 1e-9 * float64(i+1)}
		}
		return out
	}
	capacity := func(i, v int) func(map[string]any) {
		return func(m map[string]any) {
			m["mem"].(map[string]any)["levels"].([]any)[i].(map[string]any)["capacity_bytes"] = v
		}
	}
	pages := func(page, large int) func(map[string]any) {
		return func(m map[string]any) {
			memField("page_bytes", page)(m)
			memField("large_page_bytes", large)(m)
		}
	}
	tlb := func(entries, large int) func(map[string]any) {
		return func(m map[string]any) {
			memField("tlb.entries", entries)(m)
			memField("large_page_bytes", large)(m)
		}
	}
	text := func(field string, n int) func(map[string]any) {
		v := strings.Repeat("x", n)
		return func(m map[string]any) {
			switch field {
			case "label":
				m["label"] = v
			case "level":
				m["mem"].(map[string]any)["levels"].([]any)[0].(map[string]any)["name"] = v
			default:
				memField(strings.TrimPrefix(field, "mem."), v)(m)
			}
		}
	}
	cases := []struct {
		name   string
		mutate func(m map[string]any)
		want   []string // substrings of the error; nil means accepted
	}{
		// edr-16n.json's topology with the node count that killed a shard:
		// 6.4e9 ranks asked of NewSim. The smoke POSTs the file itself.
		{"400 million nodes", topo(400000000, 2, 8), []string{"topology.nodes", "400000000", "1024"}},
		// 2^31 × 2^31 × 4 wraps to 0 in a 64-bit int: a check on the
		// naive product alone would accept it.
		{"overflowing product", topo(1<<31, 1<<31, 4), []string{"topology.nodes", "1024"}},

		{"nodes at limit", topo(maxSpecCores, 1, 1), nil},
		{"nodes over", topo(maxSpecCores+1, 1, 1), []string{"topology.nodes", "1024"}},
		{"sockets at limit", topo(1, maxSpecCores, 1), nil},
		{"sockets over", topo(1, maxSpecCores+1, 1), []string{"topology.sockets_per_node", "1024"}},
		{"cores at limit", topo(1, 1, maxSpecCores), nil},
		{"cores over", topo(1, 1, maxSpecCores+1), []string{"topology.cores_per_socket", "1024"}},
		{"total at limit", topo(64, 2, 8), nil},
		{"total over", topo(64, 2, 9), []string{"1152 cores in total", "1024"}},

		{"levels at limit", memField("levels", levels(maxSpecMemLevels)), nil},
		{"levels over", memField("levels", levels(maxSpecMemLevels+1)), []string{"mem.levels count", "8"}},
		{"tlb entries at limit", memField("tlb.entries", maxSpecTLBEntries), nil},
		{"tlb entries over", memField("tlb.entries", maxSpecTLBEntries+1), []string{"mem.tlb.entries", "1048576"}},
		{"numa nodes at limit", memField("numa.nodes", maxSpecNUMANodes), nil},
		{"numa nodes over", memField("numa.nodes", maxSpecNUMANodes+1), []string{"mem.numa.nodes", "64"}},

		{"capacity at limit", capacity(2, maxSpecBytes), nil},
		{"capacity over", capacity(2, maxSpecBytes+1), []string{"mem.levels[2].capacity_bytes", "1099511627776"}},
		{"page bytes at limit", pages(maxSpecBytes, maxSpecBytes), nil},
		{"page bytes over", pages(maxSpecBytes+1, maxSpecBytes+1), []string{"mem.page_bytes", "1099511627776"}},
		{"large page bytes at limit", pages(4096, maxSpecBytes), nil},
		{"large page bytes over", pages(4096, maxSpecBytes+1), []string{"mem.large_page_bytes", "1099511627776"}},
		{"tlb reach at limit", tlb(maxSpecTLBReach/maxSpecBytes, maxSpecBytes), nil},
		{"tlb reach over", tlb(maxSpecTLBReach/maxSpecBytes+1, maxSpecBytes), []string{"TLB reach", "1125899906842624"}},
		// Both factors at their own limit: 2^60, which fits an int but is
		// 1024 times the reach limit.
		{"tlb reach product", tlb(maxSpecTLBEntries, maxSpecBytes), []string{"TLB reach", "1125899906842624"}},
		// Before the byte ceilings, 2^20 entries of 2^43-byte pages made
		// TLBReach() wrap negative and every access a TLB miss.
		{"tlb reach that wrapped negative", tlb(maxSpecTLBEntries, 1<<43), []string{"mem.large_page_bytes", "1099511627776"}},

		{"label at limit", text("label", maxSpecText), nil},
		{"label over", text("label", maxSpecText+1), []string{"label length", "256"}},
		{"mem name at limit", text("mem.name", maxSpecText), nil},
		{"mem name over", text("mem.name", maxSpecText+1), []string{"mem.name length", "256"}},
		{"level name at limit", text("level", maxSpecText), nil},
		{"level name over", text("level", maxSpecText+1), []string{"mem.levels[0].name length", "256"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := validSpecJSON()
			tc.mutate(m)
			_, err := ParseSpec(marshal(t, m))
			if tc.want == nil {
				if err != nil {
					t.Fatalf("a spec at the limit was rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("ParseSpec accepted a spec beyond the ceiling")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

func TestParseSpecMalformed(t *testing.T) {
	for _, doc := range []string{"", "{", `"just a string"`, `{"topology": {}} trailing`} {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Fatalf("ParseSpec accepted %q", doc)
		}
	}
}

// NUMA inside a single machine-room node is the fat-1n shape: valid,
// and it must advertise the numa capability without multi-node.
func TestParseSpecNUMAOnOneNode(t *testing.T) {
	m := validSpecJSON()
	m["topology"].(map[string]any)["nodes"] = 1
	s, err := ParseSpec(marshal(t, m))
	if err != nil {
		t.Fatalf("1-node NUMA spec rejected: %v", err)
	}
	caps := s.Model().Caps()
	if caps&CapNUMA == 0 || caps&CapMultiNode != 0 {
		t.Fatalf("caps = %v, want numa without multi-node", caps)
	}
}

// Omitting mem entirely is valid but yields no mem-model capability —
// the M-family experiments must refuse such a platform downstream.
func TestParseSpecNoMem(t *testing.T) {
	m := validSpecJSON()
	delete(m, "mem")
	s, err := ParseSpec(marshal(t, m))
	if err != nil {
		t.Fatalf("mem-less spec rejected: %v", err)
	}
	if caps := s.Model().Caps(); caps&CapMemModel != 0 {
		t.Fatalf("caps = %v, want no mem-model", caps)
	}
}

func TestRegisterCustomIdempotent(t *testing.T) {
	defer PurgeCustoms()
	PurgeCustoms()
	s, err := ParseSpec([]byte(validSpecText))
	if err != nil {
		t.Fatal(err)
	}
	name, existed := RegisterCustom(s)
	if existed {
		t.Fatal("first registration reported existing")
	}
	// Re-parse from the canonical bytes: same machine, same name.
	s2, err := ParseSpec(s.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	name2, existed := RegisterCustom(s2)
	if !existed || name2 != name {
		t.Fatalf("re-registration: name=%q existed=%v, want %q true", name2, existed, name)
	}
	if got := CustomCount(); got != 1 {
		t.Fatalf("CustomCount = %d, want 1", got)
	}
}

func TestLookupResolvesCustoms(t *testing.T) {
	defer PurgeCustoms()
	PurgeCustoms()
	s, err := ParseSpec([]byte(validSpecText))
	if err != nil {
		t.Fatal(err)
	}
	name, _ := RegisterCustom(s)
	m1, ok := Lookup(name)
	if !ok {
		t.Fatalf("Lookup(%q) missed a registered custom", name)
	}
	m2, _ := Lookup(name)
	if m1 == m2 {
		t.Fatal("Lookup aliases custom models across calls")
	}
	if m1.Name != name {
		t.Fatalf("looked-up model named %q, want %q", m1.Name, name)
	}
	if _, ok := Lookup(CustomPrefix + "000000000000"); ok {
		t.Fatal("Lookup resolved an unregistered custom name")
	}
	// Presets still resolve and never collide with the custom prefix.
	for _, n := range Names() {
		if IsCustomName(n) {
			t.Fatalf("preset %q uses the custom prefix", n)
		}
		if _, ok := Lookup(n); !ok {
			t.Fatalf("preset %q stopped resolving", n)
		}
	}
}

func TestCustomRegistryLRU(t *testing.T) {
	defer PurgeCustoms()
	PurgeCustoms()
	names := make([]string, DefaultCustomLimit+1)
	for i := range names {
		m := validSpecJSON()
		m["label"] = fmt.Sprintf("machine %d", i)
		s, err := ParseSpec(marshal(t, m))
		if err != nil {
			t.Fatal(err)
		}
		names[i], _ = RegisterCustom(s)
		if i == DefaultCustomLimit-1 {
			// Touch the oldest so it is no longer the eviction victim.
			if _, ok := Lookup(names[0]); !ok {
				t.Fatal("touch lookup missed")
			}
		}
	}
	if got := CustomCount(); got != DefaultCustomLimit {
		t.Fatalf("CustomCount = %d, want %d", got, DefaultCustomLimit)
	}
	if _, ok := Lookup(names[1]); ok {
		t.Fatal("LRU victim still resolves")
	}
	for _, n := range append(names[:1:1], names[2:]...) {
		if _, ok := Lookup(n); !ok {
			t.Fatalf("%q evicted, want kept", n)
		}
	}
}

func TestCustomNamesSorted(t *testing.T) {
	defer PurgeCustoms()
	PurgeCustoms()
	for i := 0; i < 3; i++ {
		m := validSpecJSON()
		m["label"] = fmt.Sprintf("sorted %d", i)
		s, err := ParseSpec(marshal(t, m))
		if err != nil {
			t.Fatal(err)
		}
		RegisterCustom(s)
	}
	names := CustomNames()
	if len(names) != 3 {
		t.Fatalf("CustomNames len = %d, want 3", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("CustomNames not sorted: %v", names)
		}
	}
	if _, ok := CustomSpec(names[0]); !ok {
		t.Fatal("CustomSpec missed a registered name")
	}
}

// FuzzParseSpec: no document panics the parser, an accepted spec's
// canonical bytes parse back to themselves, and its TLB reach is
// positive in both modes. The checked-in corpus holds the hostile
// documents the ceilings were written for.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(validSpecText))
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := ParseSpec(doc)
		if err != nil {
			return
		}
		canon := s.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("the canonical bytes of an accepted spec were rejected: %v\n%s", err, canon)
		}
		if got := again.Canonical(); !bytes.Equal(got, canon) {
			t.Fatalf("canonical bytes are not a fixed point:\n%s\n%s", canon, got)
		}
		if mm := s.Model().Mem; mm != nil {
			for _, mode := range []mem.Mode{mem.Paged, mem.BigMemory} {
				if reach := mm.WithMode(mode).TLBReach(); reach <= 0 {
					t.Fatalf("accepted spec has TLB reach %d in %v mode", reach, mode)
				}
			}
		}
	})
}
