package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenIDs is the deterministic experiment set: fully modeled, no
// host measurement, no fabric-scheduling nondeterminism. Their
// default-platform quick-scale output is pinned byte-for-byte. T1 and
// M3-M6 were captured before the platform registry existed, proving
// Request{Platform: ""} reproduces the hardwired-constructor output
// exactly. F1-F3 and F12-F14 were captured later, once the
// point-to-point family ran on one pair alone, so nothing races its
// messages for a NIC. F14, the placement ablation, times messages
// whose cost depends on the path class between two placed ranks, so
// its golden pins how the fabric places ranks and classifies each
// pair. F9, F10 and T4 joined once a receive cost virtual time at its
// Wait rather than whenever its packet was pulled. Their worlds have
// more than two ranks, but here each rank has a node, and so a NIC, to
// itself, so no two senders race for one.
var goldenIDs = []string{"T1", "M3", "M4", "M5", "M6", "F1", "F2", "F3", "F9", "F10", "F12", "F13", "F14", "T4"}

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
// each listed experiment must render identical bytes twice in a row —
// here a fresh run and the memoised cell. If one picks up a
// nondeterministic source it must leave the set.
func TestGoldenStableAcrossRuns(t *testing.T) {
	for _, id := range goldenIDs {
		e, _ := Get(id)
		var b bytes.Buffer
		if err := e.Run(&b, Request{Scale: Quick}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if b.String() != runExp(t, id) {
			t.Errorf("%s is not deterministic and cannot be golden-tested", id)
		}
	}
}
