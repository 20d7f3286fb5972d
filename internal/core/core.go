// Package core is the characterization harness — the study's primary
// deliverable. It defines the reconstructed evaluation as a registry of
// experiments, each of which drives the benchmark suites over the
// modeled platforms and renders its table or figure data to a writer.
// Three families are registered (see the README's experiment families):
// the tables T1-T4, the communication and application figures F1-F16,
// and the memory-hierarchy family M1-M6 (latency ladder, TLB stress,
// page-size comparison, fitted-vs-truth, NUMA placement ladder,
// placement slowdown; see internal/mem). cmd/charhpc runs the whole
// registry; the bench/ harness times each experiment as
// core.run_ms.<ID>.
//
// The platform is a request axis: every experiment runs against a
// Request{Scale, Platform}, where Platform names a preset from
// internal/cluster's registry and "" means the experiment's canonical
// platform set (byte-identical to the pre-registry hardwired output).
// Experiments declare the capabilities a preset must have (Needs), so
// callers can enumerate the valid presets per experiment and reject
// incompatible requests before anything runs.
package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/cluster"
)

// Scale selects the sweep sizes: Quick keeps everything small enough
// for unit tests and benchmark iterations; Full reproduces the
// paper-scale sweeps.
type Scale int

const (
	// Quick runs reduced sweeps (seconds).
	Quick Scale = iota
	// Full runs paper-scale sweeps (minutes).
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// ParseScale is String's inverse — the one place the scale vocabulary
// is spelled. The empty string is Quick, the default everywhere a
// scale is optional; ok is false for anything else.
func ParseScale(s string) (_ Scale, ok bool) {
	switch s {
	case "", Quick.String():
		return Quick, true
	case Full.String():
		return Full, true
	}
	return Quick, false
}

// Request parameterizes one experiment execution: the sweep scale and
// the platform axis. Platform is a preset name from internal/cluster's
// registry; the zero value ("") selects the experiment's canonical
// platform set and reproduces the historical output byte-for-byte.
type Request struct {
	Scale    Scale
	Platform string
}

// String renders the request for cache keys and error messages:
// "quick" for the default platform set, "quick@ib-8n" otherwise.
func (r Request) String() string {
	if r.Platform == "" {
		return r.Scale.String()
	}
	return r.Scale.String() + "@" + r.Platform
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the experiment identifier ("T1", "F5", ...), as the README's
	// experiment families list them.
	ID string
	// Title describes what the table/figure shows.
	Title string
	// Kind is "table" or "figure".
	Kind string
	// Run produces the experiment's output for one request. A change
	// to a modeled experiment's quick output changes its line in
	// digests.txt, which invalidates its cached results (see
	// fingerprint.go).
	Run func(w io.Writer, r Request) error
	// Needs is the capability mask a preset must satisfy for this
	// experiment to be meaningful on it (fabric experiments need
	// multi-node models, the M family needs a memory model, M5/M6
	// need NUMA). Zero (cluster.CapAny) accepts every preset.
	Needs cluster.Capability
	// NoPlatform marks experiments with no platform axis at all
	// (host-only measurements such as T2): only the default request
	// is valid for them.
	NoPlatform bool
}

// Platforms returns the preset names this experiment accepts for an
// explicit Request.Platform, in registry order — what the service
// advertises in its listing. Nil for NoPlatform experiments.
func (e Experiment) Platforms() []string {
	if e.NoPlatform {
		return nil
	}
	return cluster.NamesWith(e.Needs)
}

// Typed platform-validation failures. CheckPlatform and platformsFor
// wrap these with %w so callers (the HTTP layer's error envelope, the
// CLIs) can branch on the class of failure with errors.Is instead of
// substring-matching rendered messages.
var (
	// ErrUnknownPlatform marks a platform name that resolves to neither
	// a preset nor a registered custom.
	ErrUnknownPlatform = errors.New("unknown platform")
	// ErrIncompatiblePlatform marks a platform that exists but lacks a
	// capability the experiment Needs.
	ErrIncompatiblePlatform = errors.New("is incompatible")
	// ErrNoPlatformAxis marks an explicit platform given to an
	// experiment that measures the host and accepts none.
	ErrNoPlatformAxis = errors.New("has no platform axis")
)

// CheckPlatform validates an explicit platform name against the
// experiment's declared needs. The default "" is always valid.
func (e Experiment) CheckPlatform(name string) error {
	if name == "" {
		return nil
	}
	if e.NoPlatform {
		return fmt.Errorf("core: experiment %s %w (it measures the host)", e.ID, ErrNoPlatformAxis)
	}
	m, ok := cluster.Lookup(name)
	if !ok {
		return fmt.Errorf("core: %w %q (presets: %v)", ErrUnknownPlatform, name, cluster.Names())
	}
	if !m.Has(e.Needs) {
		return fmt.Errorf("core: platform %q %w with experiment %s (needs %s; valid: %v)",
			name, ErrIncompatiblePlatform, e.ID, e.Needs, e.Platforms())
	}
	return nil
}

var registry = map[string]Experiment{}

// register adds an experiment at package init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment %s", e.ID))
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment in a stable order: tables
// first, then figures, each group sorted by ID with the family letters
// alphabetical and the numeric suffix numeric ("F2" before "F10",
// "F16" before "M1").
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind == "table" && out[j].Kind != "table"
		}
		return idLess(out[i].ID, out[j].ID)
	})
	return out
}

// idLess orders experiment IDs by (letter prefix, numeric suffix), so
// mixed families collate deterministically: F2 < F10 < M1 < T4. IDs
// without a clean numeric suffix sort before numbered siblings of the
// same prefix, then fall back to the full-string comparison.
func idLess(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// splitID splits an ID like "F13" into its letter prefix and number.
// A malformed suffix — empty ("F") or non-numeric tail ("F13x") —
// reports -1, below every well-formed number, instead of silently
// parsing as 0 and colliding with a real "F0".
func splitID(id string) (string, int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n, err := strconv.Atoi(id[i:])
	if err != nil {
		return id[:i], -1
	}
	return id[:i], n
}

// platformsFor resolves a request's platform axis for an experiment:
// "" instantiates the canonical presets; an explicit name becomes a
// one-element list looked up in the registry. Every model is freshly
// constructed, so experiments may mutate placement or topology without
// aliasing other runs.
func platformsFor(r Request, canonical ...string) ([]*cluster.Model, error) {
	if r.Platform == "" {
		ms := make([]*cluster.Model, len(canonical))
		for i, name := range canonical {
			ms[i] = cluster.Preset(name)
		}
		return ms, nil
	}
	m, ok := cluster.Lookup(r.Platform)
	if !ok {
		return nil, fmt.Errorf("core: %w %q (presets: %v)", ErrUnknownPlatform, r.Platform, cluster.Names())
	}
	return []*cluster.Model{m}, nil
}
