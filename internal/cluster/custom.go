// User-defined platforms as data: a JSON document describing a
// cluster.Model — topology, per-path-class LogGP parameters, memory
// bandwidths, and an optional memory-hierarchy model — decoded,
// validated against the same machinery the presets use, and registered
// under a content-addressed name.
//
// The name is "custom-" plus the first 12 hex digits of the SHA-256 of
// the spec's canonical encoding, so the platform IS its parameters:
// two documents that decode to the same machine get the same name (a
// re-registration is idempotent), and a (id, scale, platform) cache
// key qualified by a custom name can never silently mean a different
// machine — the property that lets disk-cached custom results replay
// across restarts without any extra invalidation machinery.
//
// Registered customs resolve through the same Lookup as presets and
// derive the same Capability tags from their structure, so experiment
// compatibility (core's Needs checks) treats a user machine exactly
// like a built-in one. The registry is process-wide and bounded: past
// DefaultCustomLimit the least-recently-used spec is dropped, so
// churning registrations cannot grow memory without bound. Presets are
// never affected — they live in their own table, and core's
// fingerprints hash preset shapes (PresetShape) only, never a custom,
// so registering one never invalidates anyone's disk cache.
package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/lru"
	"repro/internal/mem"
)

// CustomPrefix starts every registered custom platform's name; nothing
// else (preset names, the "default" axis) may use it.
const CustomPrefix = "custom-"

// DefaultCustomLimit bounds the process-wide custom registry.
const DefaultCustomLimit = 256

// IsCustomName reports whether a platform name addresses a registered
// custom platform rather than a preset.
func IsCustomName(name string) bool {
	return len(name) > len(CustomPrefix) && name[:len(CustomPrefix)] == CustomPrefix
}

// LinkSpec is the JSON form of one path class's LogGP parameters.
// Bandwidth is given as bytes/second (the number users know), not as
// the model's seconds/byte gap; 0 or omitted means an infinite link.
type LinkSpec struct {
	LatencyS           float64 `json:"latency_s"`
	OverheadS          float64 `json:"overhead_s"`
	GapS               float64 `json:"gap_s"`
	BandwidthBytesPerS float64 `json:"bandwidth_bytes_per_s,omitempty"`
}

// logGP converts to the model's parameterization. A negative bandwidth
// produces a negative gap-per-byte, which Validate rejects.
func (l LinkSpec) logGP() LogGP {
	gb := 0.0
	if l.BandwidthBytesPerS > 0 {
		gb = 1 / l.BandwidthBytesPerS
	} else if l.BandwidthBytesPerS < 0 {
		gb = l.BandwidthBytesPerS
	}
	return LogGP{L: l.LatencyS, O: l.OverheadS, G: l.GapS, GB: gb}
}

// LinksSpec names the four path classes of LinksSpec's model
// counterpart.
type LinksSpec struct {
	Self        LinkSpec `json:"self"`
	IntraSocket LinkSpec `json:"intra_socket"`
	IntraNode   LinkSpec `json:"intra_node"`
	InterNode   LinkSpec `json:"inter_node"`
}

// TopologySpec is the JSON form of Topology.
type TopologySpec struct {
	Nodes          int `json:"nodes"`
	SocketsPerNode int `json:"sockets_per_node"`
	CoresPerSocket int `json:"cores_per_socket"`
}

// LevelSpec is one cache level of a custom memory hierarchy.
type LevelSpec struct {
	Name          string  `json:"name"`
	CapacityBytes int     `json:"capacity_bytes"`
	LatencyS      float64 `json:"latency_s"`
}

// TLBSpec is the JSON form of mem.TLB.
type TLBSpec struct {
	Entries   int     `json:"entries"`
	MissCostS float64 `json:"miss_cost_s"`
}

// NUMASpec is the JSON form of mem.NUMA. Declaring it with more than
// one node adds the numa capability; a 1-node machine-room topology
// may still be NUMA inside the node (the fat-1n preset's shape).
type NUMASpec struct {
	Nodes          int     `json:"nodes"`
	RemoteLatencyS float64 `json:"remote_latency_s"`
	RemoteTLBCostS float64 `json:"remote_tlb_cost_s,omitempty"`
}

// MemSpec is the JSON form of mem.Model. Omitting it entirely yields a
// platform without the mem-model capability — valid, but incompatible
// with the M-family experiments that declare Needs mem-model.
type MemSpec struct {
	Name           string      `json:"name,omitempty"`
	Levels         []LevelSpec `json:"levels"`
	MemLatencyS    float64     `json:"mem_latency_s"`
	TLB            TLBSpec     `json:"tlb"`
	PageBytes      int         `json:"page_bytes"`
	LargePageBytes int         `json:"large_page_bytes"`
	PageFaultCostS float64     `json:"page_fault_cost_s,omitempty"`
	Mode           string      `json:"mode,omitempty"` // "paged" (default) or "bigmem"
	NUMA           *NUMASpec   `json:"numa,omitempty"`
}

// Spec is a complete user-defined platform description — the JSON
// document POST /platforms and charhpc -platform-file accept. Label is
// a free-form human description; it participates in the content hash
// (the whole document is the identity) but is never a registry name.
type Spec struct {
	Label          string       `json:"label,omitempty"`
	Topology       TopologySpec `json:"topology"`
	Placement      string       `json:"placement,omitempty"` // "block" (default) or "cyclic"
	Links          LinksSpec    `json:"links"`
	MemBWPerSocket float64      `json:"mem_bw_per_socket_bytes_per_s"`
	MemBWPerCore   float64      `json:"mem_bw_per_core_bytes_per_s"`
	FlopsPerCore   float64      `json:"flops_per_core"`
	Mem            *MemSpec     `json:"mem,omitempty"`
}

// Ceilings on what a custom spec may ask for. Presets are code and are
// not checked; a spec arrives over POST /platforms and the experiments
// size their worlds from it: the point-to-point and application
// experiments run one rank per core, and transport.NewSim builds a
// ranks × ranks table of 32-byte LogGP entries — 32 MiB at maxSpecCores,
// which is twice the largest preset (ib-64n, 512 cores) and four times
// examples/platforms/edr-16n.json. The memory-model numbers only feed
// arithmetic; their bounds sit well above any real part (the presets
// have at most 3 levels, 1536 TLB entries, 4 NUMA nodes, 256 MiB pages
// and a 16 GiB TLB reach) and keep mem.Model's int products — TLB
// reach, page rounding — far from overflow. The strings are labels.
const (
	maxSpecCores      = 1024 // each topology dimension, and their product
	maxSpecMemLevels  = 8
	maxSpecTLBEntries = 1 << 20
	maxSpecNUMANodes  = 64
	maxSpecBytes      = 1 << 40 // a level's capacity, and each page size
	maxSpecTLBReach   = 1 << 50 // tlb.entries × large_page_bytes
	maxSpecText       = 256     // bytes of label, mem.name, a level's name
)

// checkCeilings rejects a spec beyond the ceilings above with an error
// naming the field and the limit. It runs after Validate, so every
// topology dimension is positive.
func (s *Spec) checkCeilings() error {
	type bound struct {
		field    string
		v, limit int
	}
	t := s.Topology
	bounds := []bound{
		{"label length", len(s.Label), maxSpecText},
		{"topology.nodes", t.Nodes, maxSpecCores},
		{"topology.sockets_per_node", t.SocketsPerNode, maxSpecCores},
		{"topology.cores_per_socket", t.CoresPerSocket, maxSpecCores},
	}
	if m := s.Mem; m != nil {
		bounds = append(bounds,
			bound{"mem.name length", len(m.Name), maxSpecText},
			bound{"mem.levels count", len(m.Levels), maxSpecMemLevels},
			bound{"mem.tlb.entries", m.TLB.Entries, maxSpecTLBEntries},
			bound{"mem.page_bytes", m.PageBytes, maxSpecBytes},
			bound{"mem.large_page_bytes", m.LargePageBytes, maxSpecBytes})
		for i, l := range m.Levels {
			bounds = append(bounds,
				bound{fmt.Sprintf("mem.levels[%d].name length", i), len(l.Name), maxSpecText},
				bound{fmt.Sprintf("mem.levels[%d].capacity_bytes", i), l.CapacityBytes, maxSpecBytes})
		}
		if m.NUMA != nil {
			bounds = append(bounds, bound{"mem.numa.nodes", m.NUMA.Nodes, maxSpecNUMANodes})
		}
	}
	for _, b := range bounds {
		if b.v > b.limit {
			return fmt.Errorf("cluster: platform spec %s = %d exceeds the limit of %d", b.field, b.v, b.limit)
		}
	}
	// Validate made the page sizes positive with large_page_bytes the
	// larger, so this bounds the reach in both modes, and dividing
	// cannot overflow where entries × large_page_bytes could.
	if m := s.Mem; m != nil && m.TLB.Entries > maxSpecTLBReach/m.LargePageBytes {
		return fmt.Errorf("cluster: platform spec TLB reach (mem.tlb.entries × mem.large_page_bytes) exceeds the limit of %d bytes", maxSpecTLBReach)
	}
	// Each dimension is in [1, maxSpecCores] here, so the product is at
	// most 2^30 and cannot overflow an int.
	if total := t.Nodes * t.SocketsPerNode * t.CoresPerSocket; total > maxSpecCores {
		return fmt.Errorf("cluster: platform spec topology has %d cores in total (nodes × sockets_per_node × cores_per_socket), which exceeds the limit of %d", total, maxSpecCores)
	}
	return nil
}

// ParseSpec decodes and validates one JSON platform document. Unknown
// fields are rejected (a typo'd parameter must not silently become a
// default), enum strings are normalized, the built model passes the
// exact Validate() the presets would — so nothing a preset could not
// be is ever registered — and the spec stays within the ceilings
// above. The returned Spec is normalized: its Canonical() bytes, and
// therefore its Name(), are independent of the input's field order,
// whitespace, and omitted defaults.
func ParseSpec(b []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("cluster: bad platform spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("cluster: bad platform spec: trailing data after the JSON document")
	}
	// Normalize the enum defaults so an omitted field and its explicit
	// default hash identically.
	if s.Placement == "" {
		s.Placement = Block.String()
	}
	if s.Mem != nil && s.Mem.Mode == "" {
		s.Mem.Mode = mem.Paged.String()
	}
	m, err := s.build()
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkCeilings(); err != nil {
		return nil, err
	}
	return s, nil
}

// Canonical returns the spec's canonical encoding — the normalized
// struct re-marshaled, so semantically identical documents share
// bytes. It is what the content hash covers and what a platform dir
// persists.
func (s *Spec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A decoded Spec is plain data; marshaling it cannot fail.
		panic(fmt.Sprintf("cluster: canonical marshal: %v", err))
	}
	return b
}

// Name returns the spec's content-addressed registry name:
// "custom-" + the first 12 hex digits of SHA-256(Canonical()).
func (s *Spec) Name() string {
	sum := sha256.Sum256(s.Canonical())
	return fmt.Sprintf("%s%x", CustomPrefix, sum[:6])
}

// Model builds a fresh Model from the spec, named by its content hash.
// Like preset constructors, every call returns a new instance, so
// callers may mutate placement or topology without aliasing. Only
// validated specs (ParseSpec) should reach this.
func (s *Spec) Model() *Model {
	m, err := s.build()
	if err != nil {
		panic(fmt.Sprintf("cluster: building a validated spec failed: %v", err))
	}
	return m
}

// build constructs the Model, translating the enum strings. It is the
// one place the spec and model vocabularies meet.
func (s *Spec) build() (*Model, error) {
	var placement Placement
	switch s.Placement {
	case "", Block.String():
		placement = Block
	case Cyclic.String():
		placement = Cyclic
	default:
		return nil, fmt.Errorf("cluster: unknown placement %q (want block or cyclic)", s.Placement)
	}
	m := &Model{
		Name: s.Name(),
		Topo: Topology{
			Nodes:          s.Topology.Nodes,
			SocketsPerNode: s.Topology.SocketsPerNode,
			CoresPerSocket: s.Topology.CoresPerSocket,
		},
		Links: Links{
			Self:        s.Links.Self.logGP(),
			IntraSocket: s.Links.IntraSocket.logGP(),
			IntraNode:   s.Links.IntraNode.logGP(),
			InterNode:   s.Links.InterNode.logGP(),
		},
		Placement:      placement,
		MemBWPerSocket: s.MemBWPerSocket,
		MemBWPerCore:   s.MemBWPerCore,
		FlopsPerCore:   s.FlopsPerCore,
	}
	if s.Mem != nil {
		mm, err := s.Mem.build()
		if err != nil {
			return nil, err
		}
		m.Mem = mm
	}
	return m, nil
}

// build constructs the mem.Model of a MemSpec.
func (ms *MemSpec) build() (*mem.Model, error) {
	var mode mem.Mode
	switch ms.Mode {
	case "", mem.Paged.String():
		mode = mem.Paged
	case mem.BigMemory.String():
		mode = mem.BigMemory
	default:
		return nil, fmt.Errorf("cluster: unknown memory mode %q (want paged or bigmem)", ms.Mode)
	}
	name := ms.Name
	if name == "" {
		name = "custom"
	}
	m := &mem.Model{
		Name:           name,
		MemLatency:     ms.MemLatencyS,
		TLB:            mem.TLB{Entries: ms.TLB.Entries, MissCost: ms.TLB.MissCostS},
		PageBytes:      ms.PageBytes,
		LargePageBytes: ms.LargePageBytes,
		PageFaultCost:  ms.PageFaultCostS,
		Mode:           mode,
	}
	for _, l := range ms.Levels {
		m.Levels = append(m.Levels, mem.Level{Name: l.Name, Capacity: l.CapacityBytes, Latency: l.LatencyS})
	}
	if ms.NUMA != nil {
		m.NUMA = mem.NUMA{
			Nodes:         ms.NUMA.Nodes,
			RemoteLatency: ms.NUMA.RemoteLatencyS,
			RemoteTLBCost: ms.NUMA.RemoteTLBCostS,
		}
	}
	return m, nil
}

// customs is the process-wide registry of user-defined platforms,
// keyed by content-hash name with LRU eviction past the limit. Specs
// are stored as data and instantiated per Lookup, exactly like preset
// constructors, so no caller ever aliases another's Model.
var customs = struct {
	mu    sync.Mutex
	specs *lru.Cache[string, *Spec]
}{specs: lru.New[string, *Spec](DefaultCustomLimit)}

// RegisterCustom adds a validated spec to the custom registry and
// returns its content-addressed name. Registering the same machine
// again is idempotent: existed reports whether the name was already
// present (and refreshes its recency). Past the registry limit the
// least-recently-used spec is dropped — its name stops resolving until
// re-registered, which, being content-addressed, restores the exact
// same platform.
func RegisterCustom(s *Spec) (name string, existed bool) {
	name = s.Name()
	customs.mu.Lock()
	defer customs.mu.Unlock()
	if _, ok := customs.specs.Get(name); ok {
		return name, true
	}
	customs.specs.Put(name, s)
	return name, false
}

// lookupCustom resolves a registered custom name to a fresh Model.
func lookupCustom(name string) (*Model, bool) {
	customs.mu.Lock()
	s, ok := customs.specs.Get(name)
	customs.mu.Unlock()
	if !ok {
		return nil, false
	}
	return s.Model(), true
}

// CustomSpec returns the registered spec behind a custom name, without
// touching its recency — listings must not reorder the LRU.
func CustomSpec(name string) (*Spec, bool) {
	customs.mu.Lock()
	defer customs.mu.Unlock()
	return customs.specs.Peek(name)
}

// CustomNames returns every registered custom platform name, sorted —
// content hashes have no meaningful registration order to preserve.
func CustomNames() []string {
	customs.mu.Lock()
	out := customs.specs.Keys()
	customs.mu.Unlock()
	sort.Strings(out)
	return out
}

// CustomCount returns the number of registered custom platforms.
func CustomCount() int {
	customs.mu.Lock()
	defer customs.mu.Unlock()
	return customs.specs.Len()
}

// PurgeCustoms empties the custom registry (test isolation; a daemon
// never needs it).
func PurgeCustoms() {
	customs.mu.Lock()
	defer customs.mu.Unlock()
	customs.specs = lru.New[string, *Spec](DefaultCustomLimit)
}
