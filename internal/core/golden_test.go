package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenIDs is the deterministic experiment set: fully modeled, no
// host measurement, no fabric-scheduling nondeterminism. Their
// default-platform quick-scale output is pinned byte-for-byte against
// testdata captured BEFORE the platform-registry refactor, proving
// Request{Platform: ""} reproduces the hardwired-constructor output
// exactly. F14, the placement ablation, times messages whose cost
// depends on the path class between two placed ranks, so its golden
// pins how the fabric places ranks and classifies each pair.
var goldenIDs = []string{"T1", "M3", "M4", "M5", "M6", "F14"}

// TestGoldenDefaultPlatformOutput is the refactor's acceptance gate:
// for every deterministic experiment, the default request renders the
// same bytes the pre-refactor code did. Regenerate a golden only for
// an intentional output change:
//
//	go test ./internal/core -run TestGoldenDefaultPlatformOutput -update-golden
//
// (then eyeball the diff — a golden update IS an output change).
func TestGoldenDefaultPlatformOutput(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			var b bytes.Buffer
			if err := e.Run(&b, Request{Scale: Quick}); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			path := filepath.Join("testdata", "golden", id+"_quick.txt")
			if *updateGolden {
				if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%s default-platform output diverged from pre-refactor golden\n got %d bytes\nwant %d bytes\n--- got ---\n%s\n--- want ---\n%s",
					id, b.Len(), len(want), b.String(), want)
			}
		})
	}
}

// TestGoldenStableAcrossRuns guards the premise of the golden set:
// each listed experiment must render identical bytes twice in a row.
// If one picks up a nondeterministic source it must leave the set.
func TestGoldenStableAcrossRuns(t *testing.T) {
	for _, id := range goldenIDs {
		e, _ := Get(id)
		var a, b bytes.Buffer
		if err := e.Run(&a, Request{Scale: Quick}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := e.Run(&b, Request{Scale: Quick}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s is not deterministic and cannot be golden-tested", id)
		}
	}
}
