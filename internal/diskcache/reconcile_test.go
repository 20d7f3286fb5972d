// Generation-reconcile tests: per-experiment selective invalidation on
// Open and — extending the crash-scenario suite — the state a crash
// mid-reconcile leaves behind. The invariant under test throughout: a
// deploy invalidates exactly the delta, and nothing a crash leaves on
// disk is ever served stale or reported as corruption.
package diskcache

import (
	"os"
	"path/filepath"
	"testing"
)

// writeMarker plants the store's FINGERPRINT generation marker as a
// current-format binary with global fingerprint fp would record it.
func writeMarker(t *testing.T, dir, fp string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, fpFile), []byte(marker(fp)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func perIDFingerprints(global string, ids map[string]string) Fingerprints {
	return Fingerprints{Global: global, PerID: ids}
}

// TestSelectiveInvalidationOnOpen is the tentpole behavior at the
// store level: a generation change purges exactly the experiments
// whose fingerprint moved, and the survivors still hit.
func TestSelectiveInvalidationOnOpen(t *testing.T) {
	dir := t.TempDir()
	keyA := Key{ID: "A", Scale: "quick", ContentType: "text/plain"}
	keyAjson := Key{ID: "A", Scale: "quick", ContentType: "application/json"}
	keyB := Key{ID: "B", Scale: "quick", ContentType: "text/plain"}

	st := mustOpenFPS(t, dir, perIDFingerprints("gen1", map[string]string{"A": "fpA1", "B": "fpB1"}), 0)
	for _, k := range []Key{keyA, keyAjson, keyB} {
		if err := st.Put(k, testEntry("body of "+k.ID+"/"+k.ContentType)); err != nil {
			t.Fatal(err)
		}
	}

	// Deploy: experiment A's dependencies changed, B's did not.
	st2 := mustOpenFPS(t, dir, perIDFingerprints("gen2", map[string]string{"A": "fpA2", "B": "fpB1"}), 0)
	if n := st2.StalePurged(); n != 2 {
		t.Errorf("StalePurged = %d, want 2 (both A representations)", n)
	}
	if _, ok := st2.Get(keyA); ok {
		t.Error("invalidated experiment A still served")
	}
	if _, ok := st2.Get(keyAjson); ok {
		t.Error("invalidated experiment A (json) still served")
	}
	if got, ok := st2.Get(keyB); !ok || string(got.Body) != "body of B/text/plain" {
		t.Errorf("unaffected experiment B lost: ok=%v body=%q", ok, got.Body)
	}
	if n := st2.Len(); n != 1 {
		t.Errorf("Len = %d after selective purge, want 1", n)
	}
}

// TestSameGenerationOpenPurgesNothing pins the fast path: matching
// Global marker means zero entry reads, zero purges.
func TestSameGenerationOpenPurgesNothing(t *testing.T) {
	dir := t.TempDir()
	fps := perIDFingerprints("gen1", map[string]string{"T1": "fpT1"})
	st := mustOpenFPS(t, dir, fps, 0)
	if err := st.Put(testKey, testEntry("stays")); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpenFPS(t, dir, fps, 0)
	if n := st2.StalePurged(); n != 0 {
		t.Errorf("StalePurged = %d on same-generation open, want 0", n)
	}
	if _, ok := st2.Get(testKey); !ok {
		t.Error("entry lost across same-generation reopen")
	}
}

// TestRemovedExperimentEntriesPurged: with a per-experiment map, an
// entry whose experiment is no longer registered must not survive the
// reconcile by falling back to the global fingerprint — it is purged
// whether current-format (an experiment invalidation) or legacy (a
// format one).
func TestRemovedExperimentEntriesPurged(t *testing.T) {
	dir := t.TempDir()
	keyDead := Key{ID: "GONE", Scale: "quick", ContentType: "text/plain"}
	keyDeadLegacy := Key{ID: "ALSOGONE", Scale: "quick", ContentType: "text/plain"}
	keyLive := Key{ID: "T1", Scale: "quick", ContentType: "text/plain"}
	writeCurrentEntry(t, dir, "fpGONE", keyDead, "experiment was removed")
	writeLegacyEntry(t, dir, "legacy-gen", keyDeadLegacy, "removed before versioning")
	writeCurrentEntry(t, dir, "fpT1", keyLive, "still registered")
	writeMarker(t, dir, "legacy-gen")

	st := mustOpenFPS(t, dir, perIDFingerprints("gen2", map[string]string{"T1": "fpT1"}), 0)
	if n := st.StalePurged(); n != 2 {
		t.Errorf("StalePurged = %d, want 2 (both dead-experiment entries)", n)
	}
	if _, ok := st.Get(keyDead); ok {
		t.Error("current-format entry for a removed experiment served")
	}
	if _, ok := st.Get(keyDeadLegacy); ok {
		t.Error("legacy entry for a removed experiment served")
	}
	if got, ok := st.Get(keyLive); !ok || string(got.Body) != "still registered" {
		t.Errorf("live experiment's entry: ok=%v body=%q", ok, got.Body)
	}
	// And Put refuses to write an entry it could never validate.
	if err := st.Put(keyDead, testEntry("no fingerprint")); err == nil {
		t.Error("Put for an unregistered experiment succeeded, want error")
	}
}

// Reconcile removes stale entries one at a time and writes the new
// FINGERPRINT marker only after the whole walk, so a kill mid-walk
// leaves some stale entries gone, some still present, and the old
// marker. The next open re-runs the walk: survivors validate again,
// the remaining stale entries go, and the store ends fully consistent.
func TestCrashMidReconcileResumesIdempotently(t *testing.T) {
	dir := t.TempDir()
	fps := perIDFingerprints("gen2", map[string]string{"A": "fpA", "B": "fpB2", "C": "fpC2"})
	keyA := Key{ID: "A", Scale: "quick", ContentType: "text/plain"}
	keyB := Key{ID: "B", Scale: "quick", ContentType: "text/plain"}
	keyC := Key{ID: "C", Scale: "quick", ContentType: "text/plain"}
	writeCurrentEntry(t, dir, "fpA", keyA, "unchanged by the deploy")
	writeCurrentEntry(t, dir, "fpB1", keyB, "stale, not yet reached by the killed walk")
	// C's stale entry was already removed before the kill.
	writeMarker(t, dir, "gen1")

	st := mustOpenFPS(t, dir, fps, 0)
	if got, ok := st.Get(keyA); !ok || string(got.Body) != "unchanged by the deploy" {
		t.Errorf("surviving entry: ok=%v body=%q", ok, got.Body)
	}
	if _, ok := st.Get(keyB); ok {
		t.Error("stale entry the killed walk had not reached was served")
	}
	if _, ok := st.Get(keyC); ok {
		t.Error("already-removed entry served")
	}
	if n := st.StalePurged(); n != 1 {
		t.Errorf("StalePurged = %d, want 1 (only B was left to remove)", n)
	}
	// The walk completed and recorded the generation: nothing left to do.
	if n := mustOpenFPS(t, dir, fps, 0).StalePurged(); n != 0 {
		t.Errorf("StalePurged = %d on the open after the resumed one, want 0", n)
	}
}

// TestFutureFormatEntryIsMissNotDelete: an entry from a format this
// binary doesn't know (a newer sibling's work in a shared directory)
// reads as a miss on Get but is never destroyed.
func TestFutureFormatEntryIsMissNotDelete(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenFPS(t, dir, perIDFingerprints("gen1", nil), 0)
	e := testEntry("from the future")
	f := fileEntry{Format: entryFormat + 1, Fingerprint: "whatever", ID: testKey.ID,
		Scale: testKey.Scale, ContentType: testKey.ContentType, ETag: e.ETag,
		ElapsedNS: int64(e.Elapsed), SHA256: bodySum(e.Body), Body: e.Body}
	b, err := encodeEntry(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, entryName(testKey))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(testKey); ok {
		t.Error("future-format entry served")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("future-format entry deleted on Get: %v", err)
	}
}

// TestInvalidationMetricsFlushAfterOpen: reasons counted during Open's
// reconcile are in the store's counts as soon as Open returns, with no
// wiring step, so a post-startup scrape sees the purge; later
// invalidations add to them.
func TestInvalidationMetricsFlushAfterOpen(t *testing.T) {
	dir := t.TempDir()
	keyA := Key{ID: "A", Scale: "quick", ContentType: "text/plain"}
	keyB := Key{ID: "B", Scale: "quick", ContentType: "text/plain"}
	st := mustOpenFPS(t, dir, perIDFingerprints("gen1", map[string]string{"A": "fpA1", "B": "fpB1"}), 0)
	for _, k := range []Key{keyA, keyB} {
		if err := st.Put(k, testEntry("gen1 "+k.ID)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt B so the reconcile counts one checksum drop alongside A's
	// experiment drop.
	if err := os.Truncate(filepath.Join(dir, entryName(keyB)), 10); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpenFPS(t, dir, perIDFingerprints("gen2", map[string]string{"A": "fpA2", "B": "fpB1"}), 0)
	c := st2.Counts()
	if got := c.InvalidatedExperiment; got != 1 {
		t.Errorf("experiment invalidations = %d, want 1", got)
	}
	if got := c.InvalidatedFormat; got != 0 {
		t.Errorf("format invalidations = %d, want 0", got)
	}
	if got := c.InvalidatedChecksum; got != 1 {
		t.Errorf("checksum invalidations = %d, want 1", got)
	}
	// Later invalidations add to the same counts: plant a stale-fp
	// entry and Get it.
	writeCurrentEntry(t, dir, "fpA-stale", keyA, "stale")
	if _, ok := st2.Get(keyA); ok {
		t.Fatal("stale entry served")
	}
	if got := st2.Counts().InvalidatedExperiment; got != 2 {
		t.Errorf("experiment invalidations after stale Get = %d, want 2", got)
	}
}

// writeCurrentEntry plants a current-format entry with an arbitrary
// fingerprint, bypassing Put's stamping.
func writeCurrentEntry(t *testing.T, dir, fp string, k Key, body string) {
	t.Helper()
	e := testEntry(body)
	f := fileEntry{Format: entryFormat, Fingerprint: fp, ID: k.ID, Scale: k.Scale,
		Platform: k.Platform, ContentType: k.ContentType, ETag: e.ETag,
		ElapsedNS: int64(e.Elapsed), SHA256: bodySum(e.Body), Body: e.Body}
	b, err := encodeEntry(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, entryName(k)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustOpenFPS(t *testing.T, dir string, fps Fingerprints, maxBytes int64) *Store {
	t.Helper()
	st, err := Open(dir, fps, maxBytes)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}
