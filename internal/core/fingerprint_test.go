package core

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestFingerprintStableWithinProcess(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a != b {
		t.Errorf("Fingerprint not stable: %s vs %s", a, b)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(a) {
		t.Errorf("Fingerprint %q is not a hex SHA-256", a)
	}
}

// uncachedFingerprints and uncachedFingerprint recompute from the
// registry and seams as they stand now: the exported functions keep
// the process's first computation, so a test that swaps what the
// fingerprints hash must bypass them.
func uncachedFingerprints() map[string]string {
	perID, _ := computeFingerprints()
	return perID
}

func uncachedFingerprint() string {
	_, global := computeFingerprints()
	return global
}

// TestFingerprintsMemoMatchesComputation: the once-per-process values
// are what a fresh computation over the unmodified registry gives.
func TestFingerprintsMemoMatchesComputation(t *testing.T) {
	perID, global := computeFingerprints()
	if got := Fingerprint(); got != global {
		t.Errorf("Fingerprint() = %s, fresh computation gives %s", got, global)
	}
	if changed := changedIDs(perID, Fingerprints()); len(changed) != 0 {
		t.Errorf("Fingerprints() differs from a fresh computation at %v", changed)
	}
}

// TestFingerprintsReturnsACopy: a caller that edits its map cannot
// change what the next caller gets.
func TestFingerprintsReturnsACopy(t *testing.T) {
	fps := Fingerprints()
	want := fps["T1"]
	fps["T1"] = "edited"
	delete(fps, "F1")
	fps["ZZ99-not-registered"] = "added"
	again := Fingerprints()
	if again["T1"] != want {
		t.Errorf("Fingerprints()[T1] = %q after a caller's edit, want %q", again["T1"], want)
	}
	if _, ok := again["F1"]; !ok {
		t.Error("a caller's delete removed F1 from the next Fingerprints()")
	}
	if _, ok := again["ZZ99-not-registered"]; ok {
		t.Error("a caller's insert reached the next Fingerprints()")
	}
}

// TestComputeFingerprintsLooksUpEachPresetOnce: experiments share
// presets, and a preset's shape is a JSON rendering of its whole model,
// so one registry walk asks for each shape once.
func TestComputeFingerprintsLooksUpEachPresetOnce(t *testing.T) {
	orig := fpPresetShape
	defer func() { fpPresetShape = orig }()
	calls := map[string]int{}
	fpPresetShape = func(name string) (string, bool) {
		calls[name]++
		return orig(name)
	}
	computeFingerprints()
	if len(calls) == 0 {
		t.Fatal("no preset shape looked up — the test proves nothing")
	}
	for name, n := range calls {
		if n != 1 {
			t.Errorf("preset %s looked up %d times in one computation, want 1", name, n)
		}
	}
}

// BenchmarkComputeFingerprints is the cost of one registry walk — what
// the first Fingerprint or Fingerprints call in a process pays; every
// later call costs a map clone at most.
func BenchmarkComputeFingerprints(b *testing.B) {
	for n := 0; n < b.N; n++ {
		_, globalSink = computeFingerprints()
	}
}

var globalSink string

func TestFingerprintTracksRegistry(t *testing.T) {
	before := uncachedFingerprint()

	// Grow the registry: the fingerprint must change, because a cache
	// written by a binary with a different experiment set cannot be
	// trusted.
	const id = "ZZ99-fingerprint-test"
	registry[id] = Experiment{ID: id, Kind: "table", Title: "fingerprint probe"}
	defer delete(registry, id)
	grown := uncachedFingerprint()
	if grown == before {
		t.Error("Fingerprint unchanged after adding an experiment")
	}

	// A title change alone must also shift it — same IDs, different
	// meaning.
	registry[id] = Experiment{ID: id, Kind: "table", Title: "different title"}
	if retitled := uncachedFingerprint(); retitled == grown {
		t.Error("Fingerprint unchanged after retitling an experiment")
	}

	delete(registry, id)
	if after := uncachedFingerprint(); after != before {
		t.Errorf("Fingerprint not restored after registry restore: %s vs %s", after, before)
	}
}

// changedIDs diffs two per-experiment fingerprint maps and returns the
// ids whose fingerprint moved (or appeared/disappeared).
func changedIDs(before, after map[string]string) map[string]bool {
	out := map[string]bool{}
	for id, fp := range after {
		if before[id] != fp {
			out[id] = true
		}
	}
	for id := range before {
		if _, ok := after[id]; !ok {
			out[id] = true
		}
	}
	return out
}

// TestFingerprintForIsolatesExperimentChange is the per-experiment
// independence property the whole PR rests on: mutating ONE
// experiment's identity moves that experiment's fingerprint and
// nobody else's, while the global Fingerprint still notices.
func TestFingerprintForIsolatesExperimentChange(t *testing.T) {
	before := uncachedFingerprints()
	globalBefore := uncachedFingerprint()

	orig := registry["T1"]
	mut := orig
	mut.Needs = orig.Needs ^ cluster.CapMemModel // flip one capability bit
	registry["T1"] = mut
	defer func() { registry["T1"] = orig }()

	after := uncachedFingerprints()
	changed := changedIDs(before, after)
	if !changed["T1"] {
		t.Error("T1's fingerprint unchanged after mutating its Needs")
	}
	if len(changed) != 1 {
		t.Errorf("Needs change on T1 moved %d fingerprints %v, want only T1", len(changed), changed)
	}
	if uncachedFingerprint() == globalBefore {
		t.Error("global Fingerprint unchanged after a per-experiment change")
	}
}

// TestOutputDigestMovesExactlyOneExperiment: a changed output is the
// lever an implementation-only change pulls, so editing one digest line
// of T1 must move T1's fingerprint and nobody else's.
func TestOutputDigestMovesExactlyOneExperiment(t *testing.T) {
	before := uncachedFingerprints()

	orig := fpDigests
	i := strings.Index(orig, "T1 default ")
	if i < 0 {
		t.Fatal("digests.txt has no T1 default line")
	}
	i += len("T1 default ")
	edited := []byte(orig)
	edited[i] ^= 1 // one character of the digest
	fpDigests = string(edited)
	defer func() { fpDigests = orig }()

	changed := changedIDs(before, uncachedFingerprints())
	if !changed["T1"] || len(changed) != 1 {
		t.Errorf("editing T1's digest line moved %v, want only T1", changed)
	}
}

// TestVCSReachesOnlyHostTimed: the build's VCS stamps are hashed by
// exactly the experiments with no digest lines, the host-timed ones, so
// two builds of different commits agree on every modeled fingerprint.
func TestVCSReachesOnlyHostTimed(t *testing.T) {
	orig := fpBuildInfo
	defer func() { fpBuildInfo = orig }()
	at := func(rev string) map[string]string {
		fpBuildInfo = func() (*debug.BuildInfo, bool) {
			bi := &debug.BuildInfo{Main: debug.Module{Path: "repro", Version: "v0.0.0-" + rev}}
			bi.Settings = []debug.BuildSetting{{Key: "vcs.revision", Value: rev}}
			return bi, true
		}
		return uncachedFingerprints()
	}
	changed := changedIDs(at("aaaa"), at("bbbb"))
	for id := range registry {
		if changed[id] != hostTimed[id] {
			t.Errorf("%s: fingerprint moved with the commit = %v, want %v (host-timed)", id, changed[id], hostTimed[id])
		}
	}
}

// TestPresetShapeChangeInvalidatesExactlyDependents: perturbing one
// preset's shape (as a link-parameter change would) moves exactly the
// fingerprints of experiments that can run on that preset.
func TestPresetShapeChangeInvalidatesExactlyDependents(t *testing.T) {
	const preset = "gige-8n"
	before := uncachedFingerprints()

	orig := fpPresetShape
	fpPresetShape = func(name string) (string, bool) {
		shape, ok := orig(name)
		if ok && name == preset {
			shape += " params=mutated"
		}
		return shape, ok
	}
	defer func() { fpPresetShape = orig }()

	after := uncachedFingerprints()
	changed := changedIDs(before, after)
	for id, e := range registry {
		dependsOnPreset := false
		for _, p := range e.Platforms() {
			if p == preset {
				dependsOnPreset = true
			}
		}
		if dependsOnPreset && !changed[id] {
			t.Errorf("%s can run on %s but its fingerprint did not move", id, preset)
		}
		if !dependsOnPreset && changed[id] {
			t.Errorf("%s cannot run on %s but its fingerprint moved", id, preset)
		}
	}
	if len(changed) == 0 {
		t.Fatalf("no experiment depends on %s — the test proves nothing", preset)
	}
}

// TestScaleDefChangeInvalidatesEverything: the scale definitions are a
// dependency of every experiment, so redefining them moves every
// fingerprint.
func TestScaleDefChangeInvalidatesEverything(t *testing.T) {
	before := uncachedFingerprints()
	orig := fpScales
	fpScales = func() []Scale { return []Scale{Quick} } // Full dropped
	defer func() { fpScales = orig }()
	after := uncachedFingerprints()
	changed := changedIDs(before, after)
	if len(changed) != len(registry) {
		t.Errorf("scale-def change moved %d of %d fingerprints", len(changed), len(registry))
	}
}

// TestFingerprintMaterialUnregistered pins the not-found contract.
func TestFingerprintMaterialUnregistered(t *testing.T) {
	if _, ok := fingerprintMaterial("no-such-experiment", fpPresetShape); ok {
		t.Error("fingerprintMaterial(unregistered) reported ok")
	}
}

// TestFingerprintsCoverRegistry: one fingerprint per experiment.
func TestFingerprintsCoverRegistry(t *testing.T) {
	if fps := Fingerprints(); len(fps) != len(registry) {
		t.Fatalf("Fingerprints has %d entries for %d experiments", len(fps), len(registry))
	}
}

// TestCustomsDoNotChangeFingerprint: a custom platform's identity is
// content-hashed into its name, so registering one must leave every
// fingerprint alone — or each registration would purge the disk cache.
func TestCustomsDoNotChangeFingerprint(t *testing.T) {
	defer cluster.PurgeCustoms()
	cluster.PurgeCustoms()
	global, perID := uncachedFingerprint(), uncachedFingerprints()
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "platforms", "edr-16n.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	if name, _ := cluster.RegisterCustom(spec); !cluster.IsCustomName(name) {
		t.Fatalf("registered %q, not a custom name", name)
	}
	if got := uncachedFingerprint(); got != global {
		t.Errorf("Fingerprint changed after registering a custom: %s -> %s", global[:12], got[:12])
	}
	if changed := changedIDs(perID, uncachedFingerprints()); len(changed) != 0 {
		t.Errorf("registering a custom moved fingerprints %v", changed)
	}
}
