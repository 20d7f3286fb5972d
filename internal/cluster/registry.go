// The preset registry: the named platform models experiments run on,
// plus the capability tags that say which experiments are meaningful
// on which preset. Each preset is a spec file under presets/, decoded
// by ParseSpec like any custom; the platform is a request axis — any
// experiment can be asked for on any compatible preset by name, end to
// end through internal/core, internal/serve, and the CLIs.
package cluster

import (
	"crypto/sha256"
	"embed"
	"encoding/json"
	"fmt"
	"strings"
)

// Capability is a bitmask of platform features an experiment can
// require. Tags are derived from the model's structure (not hand
// assigned), so a preset can never advertise a capability its
// parameters don't back.
type Capability uint32

const (
	// CapMultiNode marks presets with more than one node — the fabric
	// experiments (p2p sweeps, collectives, HPCC scaling) need an
	// inter-node link to say anything.
	CapMultiNode Capability = 1 << iota
	// CapMemModel marks presets carrying an analytic memory-hierarchy
	// model (mem.Model) — what the M-family characterizes.
	CapMemModel
	// CapNUMA marks presets whose memory model has a multi-node NUMA
	// structure — required by the placement experiments (M5/M6).
	CapNUMA

	// CapAny requires nothing; every preset qualifies.
	CapAny Capability = 0
)

// String renders the mask as its tag names ("multi-node+numa"), or
// "any" for the empty mask.
func (c Capability) String() string {
	if c == CapAny {
		return "any"
	}
	return strings.Join(c.List(), "+")
}

// List returns the mask's tag names as a slice, empty for CapAny — the
// machine-readable form API listings carry.
func (c Capability) List() []string {
	var parts []string
	if c&CapMultiNode != 0 {
		parts = append(parts, "multi-node")
	}
	if c&CapMemModel != 0 {
		parts = append(parts, "mem-model")
	}
	if c&CapNUMA != 0 {
		parts = append(parts, "numa")
	}
	if rest := c &^ (CapMultiNode | CapMemModel | CapNUMA); rest != 0 {
		parts = append(parts, fmt.Sprintf("Capability(%#x)", uint32(rest)))
	}
	return parts
}

// Caps returns the capability tags this model's structure supports.
func (m *Model) Caps() Capability {
	var c Capability
	if m.Topo.Nodes > 1 {
		c |= CapMultiNode
	}
	if m.Mem != nil {
		c |= CapMemModel
		if m.Mem.NUMA.Nodes > 1 {
			c |= CapNUMA
		}
	}
	return c
}

// Has reports whether the model supports every capability in need.
func (m *Model) Has(need Capability) bool {
	return m.Caps()&need == need
}

// presetNames is the curated listing order: the two 8-node fabrics
// the study brackets (gigabit Ethernet and DDR InfiniBand, both with
// dual-socket quad-core nodes), the 64-node collective scaling model,
// then the single-node and big-memory platforms. Each name has a spec
// file, presets/<name>.json, in the schema POST /platforms accepts.
// Its values are representative published numbers of the era, not
// measurements of any one machine; experiment T1 prints them.
var presetNames = []string{"gige-8n", "ib-8n", "ib-64n", "smp-1n", "fat-1n", "bgp-64n"}

//go:embed presets/*.json
var presetFiles embed.FS

// presets holds each preset's spec, decoded once by ParseSpec — the
// path a POST /platforms body takes, ceilings included — in listing
// order. A preset file that fails it panics at package init, so no
// binary can start on a machine the service would refuse as a custom.
var presets = func() []*Spec {
	out := make([]*Spec, len(presetNames))
	for i, name := range presetNames {
		b, err := presetFiles.ReadFile("presets/" + name + ".json")
		if err == nil {
			out[i], err = ParseSpec(b)
		}
		if err != nil {
			panic(fmt.Sprintf("cluster: preset %s: %v", name, err))
		}
	}
	return out
}()

// Names returns every registered preset name in the registry's stable
// listing order.
func Names() []string {
	return append([]string(nil), presetNames...)
}

// presetSpec returns the decoded spec of a preset name.
func presetSpec(name string) (*Spec, bool) {
	for i, n := range presetNames {
		if n == name {
			return presets[i], true
		}
	}
	return nil, false
}

// Lookup returns a fresh instance of the named platform — a preset, or
// a registered custom (custom.go) addressed by its content-hash name.
// Each call constructs a new Model, so callers may mutate placement or
// topology without aliasing other lookups.
func Lookup(name string) (*Model, bool) {
	if s, ok := presetSpec(name); ok {
		return s.model(name), true
	}
	return lookupCustom(name)
}

// Preset returns a fresh instance of the named preset. It panics on a
// name that is not a preset: callers spell the name in code.
func Preset(name string) *Model {
	s, ok := presetSpec(name)
	if !ok {
		panic(fmt.Sprintf("cluster: no preset named %q", name))
	}
	return s.model(name)
}

// IBCluster returns the ib-8n preset. It exists only because the
// repository's benchmark (bench/), which is frozen against this API,
// calls it; everything else calls Preset("ib-8n").
func IBCluster() *Model { return Preset("ib-8n") }

// NamesWith returns the preset names whose models support every
// capability in need, in registry order.
func NamesWith(need Capability) []string {
	var out []string
	for _, name := range presetNames {
		if Preset(name).Has(need) {
			out = append(out, name)
		}
	}
	return out
}

// PresetShape returns the canonical shape line of one built-in preset:
// its name, derived capability tags, topology, memory-model name, and
// a content hash of every model parameter (the JSON encoding of the
// fully constructed Model — link LogGP values, bandwidths, cache
// levels, NUMA structure, all of it). core.Fingerprints hashes the
// shape of each preset an experiment can run on, so changing even one
// link parameter invalidates exactly the cached results that could
// have depended on it — and nothing else. Customs are deliberately not
// addressable here: their identity is content-hashed into their name,
// so a custom-qualified cache key can never silently change meaning.
func PresetShape(name string) (string, bool) {
	s, ok := presetSpec(name)
	if !ok {
		return "", false
	}
	m := s.model(name)
	b, err := json.Marshal(m)
	if err != nil {
		// A model built from a decoded spec is plain data; a marshal
		// failure is a programming error, not an input error.
		panic(fmt.Sprintf("cluster: preset %s shape marshal: %v", name, err))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s caps=%s topo=%s mem=%s params=%x",
		name, m.Caps(), m.Topo.String(), memName(m), sum[:16]), true
}

// memName names the attached memory model, or "-" when absent.
func memName(m *Model) string {
	if m.Mem == nil {
		return "-"
	}
	return m.Mem.Name
}
