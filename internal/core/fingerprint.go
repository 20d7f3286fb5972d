// Registry fingerprinting: a stable identity for "this binary serving
// this registry", used by the disk-backed results cache to
// self-invalidate when either changes (see internal/diskcache).
//
// Since the per-experiment split, the fingerprint is decomposed: each
// experiment has its own Fingerprints()[id] hashing only what that
// experiment's result can depend on, and the process-wide Fingerprint()
// is the hash of the whole per-experiment map — equal exactly when
// every experiment's fingerprint is, so stores use it as a cheap
// "nothing changed" check before validating entries one by one. A
// deploy that changes one experiment's dependencies invalidates that
// experiment's cached results and nobody else's. The registry and
// everything hashed beside it are fixed for a process's life, so both
// are computed once, on first use.
//
// What a modeled experiment computes reaches its fingerprint through
// its output: digests.txt holds the sha256 of every (experiment,
// preset) cell at quick, and TestPlatformSweep fails until a changed
// output's line is rewritten (-update-golden). A changed output means
// a changed digest line, which invalidates that experiment's cached
// results. The table cannot see output that moves only at -scale full
// or only on a custom platform, nor a change to how serve renders a
// result. The host-timed experiments have no lines, so their results
// are valid only for the build that measured them.
package core

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"io"
	"maps"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
)

// Test seams: core's white-box fingerprint tests swap these to prove
// that exactly the dependent experiments react to a preset-shape,
// scale-definition, output or VCS change. Production never touches
// them.
var (
	fpPresetShape = cluster.PresetShape
	fpScales      = func() []Scale { return []Scale{Quick, Full} }
	fpBuildInfo   = debug.ReadBuildInfo
	// fpDigests has one "ID platform sha256" line per modeled cell,
	// "default" naming the canonical platform set.
	//
	//go:embed digests.txt
	fpDigests string
)

// buildIdentity returns the build-identity lines shared by every
// experiment's fingerprint — the Go toolchain and target platform, the
// main module's path and any -tags the binary was built with, the
// inputs that can change what ANY experiment computes — and, apart
// from them, the build's VCS stamps: the vcs.* settings and the main
// module's version and sum (since Go 1.24 a pseudo-version naming the
// commit and its dirtiness). Only host-timed experiments hash the
// stamps, so redeploying the same outputs from a new commit reuses
// every modeled result.
func buildIdentity() (build, vcs []string) {
	build = []string{fmt.Sprintln("build", runtime.Version(), runtime.GOOS, runtime.GOARCH)}
	bi, ok := fpBuildInfo()
	if !ok {
		return build, nil
	}
	build = append(build, fmt.Sprintln("build mod", bi.Main.Path))
	vcs = []string{fmt.Sprintln("build mod version", bi.Main.Version, bi.Main.Sum)}
	for _, s := range bi.Settings {
		switch {
		case s.Key == "-tags":
			build = append(build, fmt.Sprintln("build tags", s.Value))
		case strings.HasPrefix(s.Key, "vcs."):
			vcs = append(vcs, fmt.Sprintln("build", s.Key, s.Value))
		}
	}
	return build, vcs
}

// fingerprintMaterial returns the registry-derived dependency material
// of one experiment's fingerprint, one line per dependency: the
// experiment's identity (ID, kind, title, Needs, platform axis), the
// scale definitions it reads, and the canonical shape of each preset
// it can run on. Everything a cached result for id may depend on —
// other than the build identity, which is environment-specific, and
// the output digests, which digests.txt already shows (both hashed
// beside it by Fingerprints) — appears here, and ONLY what it may
// depend on: the golden test in fingerprint_golden_test.go pins this
// material for every registered experiment, so unintentional
// dependency growth (or loss) fails review visibly. ok is false for an
// unregistered id. Preset shapes come from presetShape, so one
// registry walk can share a memo of the lookup.
func fingerprintMaterial(id string, presetShape func(string) (string, bool)) ([]string, bool) {
	e, ok := registry[id]
	if !ok {
		return nil, false
	}
	lines := []string{fmt.Sprintln("experiment", e.ID, e.Kind, e.Title, uint32(e.Needs), e.NoPlatform)}
	for _, s := range fpScales() {
		lines = append(lines, fmt.Sprintln("scale", int(s), s.String()))
	}
	// The preset shapes this experiment's results can depend on: every
	// preset satisfying its Needs (which includes the canonical default
	// set — canonical constructors are preset models). Custom platforms
	// are deliberately absent: their identity is content-hashed into
	// the custom-<hash> name itself, so a custom-qualified cache key
	// can never silently mean a different machine.
	presets := e.Platforms()
	sort.Strings(presets)
	for _, name := range presets {
		shape, ok := presetShape(name)
		if !ok {
			continue
		}
		lines = append(lines, fmt.Sprintln("preset", shape))
	}
	return lines, true
}

// hashExperiment hashes one experiment's build identity, dependency
// material and output lines into its fingerprint.
func hashExperiment(build, material, output []string) string {
	h := sha256.New()
	fmt.Fprintln(h, "experiment-fingerprint/v3")
	for _, lines := range [][]string{build, material, output} {
		for _, line := range lines {
			io.WriteString(h, line)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Fingerprints returns every registered experiment's fingerprint,
// keyed by ID: the hash of the build identity, the experiment's
// fingerprintMaterial and its output lines — its digests.txt lines, or
// the build's VCS stamps for an experiment with none (a host-timed
// one: no digest can pin a measurement). Two binaries agree on
// Fingerprints()[id] exactly when a result one of them cached for id
// is still a valid answer from the other; the disk cache stores it per
// entry and validates per entry, so a deploy invalidates the delta
// instead of the store. The map is the caller's own copy.
func Fingerprints() map[string]string {
	perID, _ := fingerprints()
	return maps.Clone(perID)
}

// Fingerprint is the process-wide registry fingerprint: the hash of
// the sorted per-experiment fingerprint map. It changes exactly when
// some experiment's fingerprint does (or an experiment appears or
// disappears), so a store whose recorded Fingerprint matches the
// caller's knows every entry is still valid without touching one —
// the cheap "nothing changed" fast path across a no-op redeploy.
func Fingerprint() string {
	_, global := fingerprints()
	return global
}

// fingerprints is computeFingerprints run once per process.
var fingerprints = sync.OnceValues(computeFingerprints)

// computeFingerprints hashes the registry as it stands: every
// experiment's fingerprint (Fingerprints) and the global one
// (Fingerprint). Experiments share presets, so each preset's shape is
// looked up once per computation, not once per experiment.
func computeFingerprints() (perID map[string]string, global string) {
	type shape struct {
		s  string
		ok bool
	}
	shapes := map[string]shape{}
	presetShape := func(name string) (string, bool) {
		sh, seen := shapes[name]
		if !seen {
			sh.s, sh.ok = fpPresetShape(name)
			shapes[name] = sh
		}
		return sh.s, sh.ok
	}
	build, vcs := buildIdentity()
	outputs := map[string][]string{}
	for _, line := range strings.SplitAfter(fpDigests, "\n") {
		if id, _, ok := strings.Cut(line, " "); ok {
			outputs[id] = append(outputs[id], line)
		}
	}
	perID = make(map[string]string, len(registry))
	for id := range registry {
		material, _ := fingerprintMaterial(id, presetShape)
		output := outputs[id]
		if len(output) == 0 {
			output = vcs
		}
		perID[id] = hashExperiment(build, material, output)
	}
	ids := make([]string, 0, len(perID))
	for id := range perID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	fmt.Fprintln(h, "fingerprint/v2")
	for _, id := range ids {
		fmt.Fprintln(h, id, perID[id])
	}
	return perID, fmt.Sprintf("%x", h.Sum(nil))
}
