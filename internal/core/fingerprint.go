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
// experiment's cached results and nobody else's.
package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/cluster"
)

// pinVCSEnv, when set non-empty, folds the VCS-derived build info (the
// main module's version and sum, vcs.revision, vcs.time, vcs.modified)
// back into the build identity: every deploy from a new commit then
// invalidates the whole store, trading the cross-deploy reuse this
// package exists for against zero reliance on Experiment.Rev
// discipline. For operators who prefer conservative per-commit
// invalidation over restart availability.
const pinVCSEnv = "CHARHPC_FP_PIN_VCS"

// Test seams: core's white-box fingerprint tests swap these to prove
// that exactly the dependent experiments react to a preset-shape or
// scale-definition change. Production never touches them.
var (
	fpPresetShape = cluster.PresetShape
	fpScales      = func() []Scale { return []Scale{Quick, Full} }
)

// buildIdentity returns the build-identity lines shared by every
// experiment's fingerprint: the Go toolchain and target platform, the
// main module's path, and any -tags the binary was built with — the
// inputs that can change what ANY experiment computes.
//
// Everything derived from the VCS — the vcs.* stamps and the main
// module's version and sum (since Go 1.24 a pseudo-version naming the
// commit and its dirtiness) — is deliberately EXCLUDED by default;
// that exclusion is what per-experiment invalidation exists for:
// redeploying the same registry from a new commit must not cold-start
// the whole store. A commit that changes what an experiment computes
// must therefore announce itself in the registry material instead:
// bump that experiment's Rev (the behavior revision carried in
// FingerprintMaterial) in the same change, or alter its identity, a
// preset's parameters, or a scale definition. The fingerprint-material
// golden test in this package pins that material per experiment so
// dependency changes are visible in review. Operators who would
// rather pay a full cold start per deploy than rely on Rev discipline
// set CHARHPC_FP_PIN_VCS, which folds all of it back in.
func buildIdentity() []string {
	lines := []string{
		fmt.Sprintln("build", runtime.Version(), runtime.GOOS, runtime.GOARCH),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		lines = append(lines, fmt.Sprintln("build mod", bi.Main.Path))
		pinVCS := os.Getenv(pinVCSEnv) != ""
		if pinVCS {
			lines = append(lines, fmt.Sprintln("build mod version", bi.Main.Version, bi.Main.Sum))
		}
		for _, s := range bi.Settings {
			switch {
			case s.Key == "-tags":
				lines = append(lines, fmt.Sprintln("build tags", s.Value))
			case pinVCS && strings.HasPrefix(s.Key, "vcs."):
				lines = append(lines, fmt.Sprintln("build", s.Key, s.Value))
			}
		}
	}
	return lines
}

// FingerprintMaterial returns the registry-derived dependency material
// of one experiment's fingerprint, one line per dependency: the
// experiment's identity (ID, kind, title, Needs, platform axis), the
// scale definitions it reads, and the canonical shape of each preset
// it can run on. Everything a cached result for id may depend on —
// other than the build identity, which is environment-specific and
// therefore hashed separately — appears here, and ONLY what it may
// depend on: the golden test in fingerprint_golden_test.go pins this
// material for every registered experiment, so unintentional
// dependency growth (or loss) fails review visibly. ok is false for an
// unregistered id.
func FingerprintMaterial(id string) ([]string, bool) {
	e, ok := registry[id]
	if !ok {
		return nil, false
	}
	lines := []string{
		fmt.Sprintln("experiment", e.ID, e.Kind, e.Title, uint32(e.Needs), e.NoPlatform),
		// The behavior revision: authors bump e.Rev when the Run
		// implementation's output changes, which is the only way an
		// implementation-only deploy reaches the fingerprint (nothing
		// VCS-derived is in the build identity by default).
		fmt.Sprintln("experiment rev", e.Rev),
	}
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
		shape, ok := fpPresetShape(name)
		if !ok {
			continue
		}
		lines = append(lines, fmt.Sprintln("preset", shape))
	}
	return lines, true
}

// hashExperiment hashes one experiment's build identity + dependency
// material into its fingerprint.
func hashExperiment(build, material []string) string {
	h := sha256.New()
	fmt.Fprintln(h, "experiment-fingerprint/v2")
	for _, line := range build {
		fmt.Fprint(h, line)
	}
	for _, line := range material {
		fmt.Fprint(h, line)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Fingerprints returns every registered experiment's fingerprint,
// keyed by ID: the hash of the build identity plus the experiment's
// FingerprintMaterial, everything its cached results can depend on.
// Two binaries agree on Fingerprints()[id] exactly when a result one
// of them cached for id is still a valid answer from the other; the
// disk cache stores it per entry and validates per entry, so a deploy
// invalidates the delta instead of the store.
func Fingerprints() map[string]string {
	build := buildIdentity()
	out := make(map[string]string, len(registry))
	for id := range registry {
		material, _ := FingerprintMaterial(id)
		out[id] = hashExperiment(build, material)
	}
	return out
}

// Fingerprint is the process-wide registry fingerprint: the hash of
// the sorted per-experiment fingerprint map. It changes exactly when
// some experiment's fingerprint does (or an experiment appears or
// disappears), so a store whose recorded Fingerprint matches the
// caller's knows every entry is still valid without touching one —
// the cheap "nothing changed" fast path across a no-op redeploy.
func Fingerprint() string {
	fps := Fingerprints()
	ids := make([]string, 0, len(fps))
	for id := range fps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	fmt.Fprintln(h, "fingerprint/v2")
	for _, id := range ids {
		fmt.Fprintln(h, id, fps[id])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
