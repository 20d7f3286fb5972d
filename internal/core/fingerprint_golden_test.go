package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFingerprintMaterialGolden pins every registered experiment's
// fingerprint input material — the dependency lines, NOT the hash
// (the hash folds in the build identity, which legitimately differs
// between environments; the material is what review must see). Any
// change to what some experiment's cached results are allowed to
// depend on — a new dependency, a lost one, a reworded identity line,
// a preset shape reaching more or fewer experiments — shows up as a
// diff against testdata/fingerprint_material.golden and fails here
// until someone regenerates it with -update-golden and a reviewer
// reads exactly what moved. Output changes show in digests.txt
// instead, which Fingerprints hashes beside this material, so neither
// kind of change can ride along silently inside a deploy.
func TestFingerprintMaterialGolden(t *testing.T) {
	var sb strings.Builder
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		material, ok := fingerprintMaterial(id, fpPresetShape)
		if !ok {
			t.Fatalf("fingerprintMaterial(%q) not ok for a registered id", id)
		}
		fmt.Fprintf(&sb, "# %s\n", id)
		for _, line := range material {
			sb.WriteString(line) // lines carry their own newline
		}
		sb.WriteString("\n")
	}
	got := sb.String()

	path := filepath.Join("testdata", "fingerprint_material.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("fingerprint material drifted from golden.\n"+
			"An experiment's cache-dependency set changed: diff below, regenerate with\n"+
			"  go test ./internal/core -run TestFingerprintMaterialGolden -update-golden\n"+
			"and have review confirm the new dependencies are intended.\n%s",
			diffLines(string(want), got))
	}
}

// diffLines renders a minimal line diff (golden vs got) — enough to
// see which experiment and which dependency line moved.
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var sb strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&sb, "line %d:\n  golden: %q\n  got:    %q\n", i+1, w, g)
		}
	}
	return sb.String()
}

// TestFingerprintMaterialExcludesEnvironment: the golden material must
// be reproducible on any machine, so it may not leak build identity
// (Go version, GOOS/GOARCH, module stamps) — those hash separately in
// Fingerprints.
func TestFingerprintMaterialExcludesEnvironment(t *testing.T) {
	for id := range registry {
		material, _ := fingerprintMaterial(id, fpPresetShape)
		for _, line := range material {
			if strings.HasPrefix(line, "build") {
				t.Errorf("%s material contains a build line %q — build identity must stay out of the golden material", id, line)
			}
		}
	}
}
