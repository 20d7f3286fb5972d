// The preset registry: the named platform models experiments run on,
// plus the capability tags that say which experiments are meaningful
// on which preset. Before this existed every experiment hardcoded its
// constructors; now the platform is a request axis — any experiment
// can be asked for on any compatible preset by name, end to end
// through internal/core, internal/serve, and the CLIs.
package cluster

import (
	"crypto/sha256"
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

// presets is the built-in registry, in the curated listing order:
// the two 8-node fabrics the study brackets, the 64-node collective
// scaling model, then the single-node and big-memory platforms.
var presets = []struct {
	name string
	mk   func() *Model
}{
	{"gige-8n", GigECluster},
	{"ib-8n", IBCluster},
	{"ib-64n", BigIBCluster},
	{"smp-1n", SMPNode},
	{"fat-1n", FatNUMANode},
	{"bgp-64n", BGPRack},
}

// Names returns every registered preset name in the registry's stable
// listing order.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.name
	}
	return out
}

// Lookup returns a fresh instance of the named platform — a preset, or
// a registered custom (custom.go) addressed by its content-hash name.
// Each call constructs a new Model, so callers may mutate placement or
// topology without aliasing other lookups.
func Lookup(name string) (*Model, bool) {
	for _, p := range presets {
		if p.name == name {
			return p.mk(), true
		}
	}
	return lookupCustom(name)
}

// NamesWith returns the preset names whose models support every
// capability in need, in registry order.
func NamesWith(need Capability) []string {
	var out []string
	for _, p := range presets {
		if p.mk().Has(need) {
			out = append(out, p.name)
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
	for _, p := range presets {
		if p.name != name {
			continue
		}
		m := p.mk()
		b, err := json.Marshal(m)
		if err != nil {
			// Presets are static Go values; a marshal failure is a
			// programming error, not an input error.
			panic(fmt.Sprintf("cluster: preset %s shape marshal: %v", name, err))
		}
		sum := sha256.Sum256(b)
		return fmt.Sprintf("%s caps=%s topo=%s mem=%s params=%x",
			p.name, m.Caps(), m.Topo.String(), memName(m), sum[:16]), true
	}
	return "", false
}

// memName names the attached memory model, or "-" when absent.
func memName(m *Model) string {
	if m.Mem == nil {
		return "-"
	}
	return m.Mem.Name
}
