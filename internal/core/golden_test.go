package core

import (
	"os"
	"path/filepath"
	"testing"
)

// hostTimed are the experiments that time the host rather than a
// model: their output varies with the machine and the moment.
var hostTimed = map[string]bool{"T2": true, "F7": true, "M1": true, "M2": true, "T3": true}

// goldenIDs returns every modeled experiment, in registry order. Each is a
// pure function of its key: the fabric changes a rank's clock and
// egress lane only at that rank's own program points, so goroutine
// scheduling moves no virtual time. Their default-platform quick-scale
// output is pinned byte-for-byte. T1 and M3-M6 were captured before the
// platform registry existed, proving Request{Platform: ""} reproduces
// the hardwired-constructor output exactly. F14, the placement
// ablation, times messages whose cost depends on the path class between
// two placed ranks, so its golden pins how the fabric places ranks and
// classifies each pair.
func goldenIDs() []string {
	var ids []string
	for _, e := range All() {
		if !hostTimed[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// TestGoldenDefaultPlatformOutput is the refactor's acceptance gate:
// for every modeled experiment, the default request renders the same
// bytes as its golden file. It reads the memoised cell;
// TestRunParallelMatchesSerial makes the one fresh run. Regenerate a
// golden only for an intentional output change:
//
//	go test ./internal/core -run '^(TestGoldenDefaultPlatformOutput|TestPlatformSweep)$' -update-golden
//
// (then eyeball the diff — a golden update IS an output change, and the
// changed line in digests.txt invalidates that experiment's cached
// results).
func TestGoldenDefaultPlatformOutput(t *testing.T) {
	for _, id := range goldenIDs() {
		t.Run(id, func(t *testing.T) {
			got := runExp(t, id)
			path := filepath.Join("testdata", "golden", id+"_quick.txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s default-platform output diverged from its golden\n got %d bytes\nwant %d bytes\n--- got ---\n%s\n--- want ---\n%s",
					id, len(got), len(want), got, want)
			}
		})
	}
}
