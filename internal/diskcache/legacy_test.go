// Retired entry formats — legacy (pre-versioning, format-absent),
// format 2 (one file per content type) and format 3 (one whole-JSON
// file per result): no binary writes them and none migrates them, so
// whatever generation they claim they are a miss on Get and a
// reason="format" purge at the next reconcile.
package diskcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// wholeJSONEntry is the file layout of formats 1 to 3: one JSON object
// with the body base64-encoded inside it, then a newline.
type wholeJSONEntry struct {
	fileEntry
	Body []byte `json:"body"`
}

// writeWholeJSONEntry plants f under its key's name in a retired
// format's whole-JSON layout.
func writeWholeJSONEntry(t *testing.T, dir string, f fileEntry) {
	t.Helper()
	b, err := json.Marshal(wholeJSONEntry{f, f.Body})
	if err != nil {
		t.Fatal(err)
	}
	name := entryName(Key{f.ID, f.Scale, f.Platform, f.ContentType})
	if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyEntry plants a pre-versioning (format-absent) entry file
// as the old binary would have written it: whole-store fingerprint,
// no format field.
func writeLegacyEntry(t *testing.T, dir, storeFP string, k Key, body string) {
	t.Helper()
	e := testEntry(body)
	writeWholeJSONEntry(t, dir, fileEntry{
		Fingerprint: storeFP,
		ID:          k.ID,
		Scale:       k.Scale,
		Platform:    k.Platform,
		ContentType: k.ContentType,
		ETag:        e.ETag,
		ElapsedNS:   int64(e.Elapsed),
		SHA256:      bodySum(e.Body),
		Body:        e.Body,
	})
}

// TestLegacyEntryPurged: a legacy entry embeds only a whole-store
// fingerprint, which cannot show what a deploy changed, so it is
// purged whether that fingerprint matches the recorded generation, a
// foreign one, or there is no marker to compare against.
func TestLegacyEntryPurged(t *testing.T) {
	for _, tc := range []struct{ name, entryGen, marker string }{
		{"matching_generation", "legacy-gen", "legacy-gen"},
		{"foreign_generation", "some-other-gen", "legacy-gen"},
		{"no_marker", "legacy-gen", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, entryName(testKey))
			writeLegacyEntry(t, dir, tc.entryGen, testKey, "cannot prove freshness")
			if tc.marker != "" {
				writeMarker(t, dir, tc.marker)
			}

			st := mustOpenFPS(t, dir, perIDFingerprints("gen2", map[string]string{"T1": "fpT1"}), 0)
			if n := st.StalePurged(); n != 1 {
				t.Errorf("StalePurged = %d, want 1", n)
			}
			if got := st.Counts().InvalidatedFormat; got != 1 {
				t.Errorf("format invalidations after open = %d, want 1", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("legacy entry survived the reconcile: %v", err)
			}

			// One a sibling writes after the open is a miss, but not
			// Get's to delete.
			writeLegacyEntry(t, dir, tc.entryGen, testKey, "written by an old sibling")
			if _, ok := st.Get(testKey); ok {
				t.Error("legacy entry served")
			}
			if got := st.Counts().InvalidatedFormat; got != 2 {
				t.Errorf("format invalidations after Get = %d, want 2", got)
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("legacy entry deleted on Get: %v", err)
			}
		})
	}
}

// A truncated legacy entry is corrupt before it is legacy: the next
// open drops it as a checksum invalidation — a MISS, never a parse
// error surfaced to callers — and the slot heals.
func TestCrashLeavesTruncatedLegacyEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	writeLegacyEntry(t, dir, "legacy-gen", testKey, "about to be cut short")
	writeMarker(t, dir, "legacy-gen")
	path := filepath.Join(dir, entryName(testKey))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	st := mustOpenFPS(t, dir, perIDFingerprints("gen2", nil), 0)
	if _, ok := st.Get(testKey); ok {
		t.Error("truncated legacy entry served")
	}
	if n := st.StalePurged(); n != 1 {
		t.Errorf("StalePurged = %d, want 1 (checksum drop)", n)
	}
	// The slot healed: a fresh Put round-trips.
	if err := st.Put(testKey, testEntry("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(testKey); !ok || string(got.Body) != "fresh" {
		t.Errorf("healed slot: ok=%v body=%q", ok, got.Body)
	}
}

// TestFormatBumpAloneTriggersReconcile: the parent binary wrote
// format-2 files — one per content type — under a bare-Global marker.
// A binary whose registry is unchanged (same Global) but whose entry
// format moved must still reconcile, or the old files would sit in an
// unbounded store forever, each Get a counted miss.
func TestFormatBumpAloneTriggersReconcile(t *testing.T) {
	dir := t.TempDir()
	fps := perIDFingerprints("gen1", map[string]string{"T1": "fpT1"})
	e := testEntry("one of three representations")
	for _, ct := range []string{"text/plain", "application/json", "text/csv"} {
		writeWholeJSONEntry(t, dir, fileEntry{Format: 2, Fingerprint: "fpT1", ID: "T1", Scale: "quick", ContentType: ct,
			ETag: e.ETag, RunID: "one-run", ElapsedNS: int64(e.Elapsed), SHA256: bodySum(e.Body), Body: e.Body})
	}
	// The parent's marker form, deliberately not writeMarker's.
	if err := os.WriteFile(filepath.Join(dir, fpFile), []byte(fps.Global), 0o644); err != nil {
		t.Fatal(err)
	}

	st := mustOpenFPS(t, dir, fps, 0)
	if n := st.StalePurged(); n != 3 {
		t.Errorf("StalePurged = %d, want 3 (the format-2 set)", n)
	}
	if got := st.Counts().InvalidatedFormat; got != 3 {
		t.Errorf("format invalidations = %d, want 3", got)
	}
	if n := st.Len(); n != 0 {
		t.Errorf("%d format-2 files survived the reconcile", n)
	}
	// The marker now names this generation: the next open is the fast path.
	if n := mustOpenFPS(t, dir, fps, 0).StalePurged(); n != 0 {
		t.Errorf("StalePurged = %d on the following open, want 0", n)
	}
}
