package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var testKey = Key{ID: "T1", Scale: "quick", ContentType: "text/plain"}

func testEntry(body string) Entry {
	return Entry{ETag: `"etag-of-` + body + `"`, Elapsed: 42 * time.Millisecond, Body: []byte(body)}
}

func mustOpen(t *testing.T, dir, fp string, maxBytes int64) *Store {
	t.Helper()
	st, err := Open(dir, Fingerprints{Global: fp}, maxBytes)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func TestPutGetRoundTrip(t *testing.T) {
	st := mustOpen(t, t.TempDir(), "fp1", 0)
	want := testEntry("hello table\n")
	if err := st.Put(testKey, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := st.Get(testKey)
	if !ok {
		t.Fatal("Get missed a just-put key")
	}
	if got.ETag != want.ETag || got.Elapsed != want.Elapsed || string(got.Body) != string(want.Body) {
		t.Errorf("round trip mangled entry: got %+v want %+v", got, want)
	}
	// Other keys stay cold.
	if _, ok := st.Get(Key{ID: "T2", Scale: "quick", ContentType: "text/plain"}); ok {
		t.Error("Get hit a never-put key")
	}
}

func TestReopenSameFingerprintKeepsEntries(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, "fp1", 0)
	if err := st.Put(testKey, testEntry("persisted")); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, "fp1", 0)
	if got, ok := st2.Get(testKey); !ok || string(got.Body) != "persisted" {
		t.Errorf("entry lost across reopen: ok=%v body=%q", ok, got.Body)
	}
}

func TestFingerprintChangePurgesStore(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, "fp1", 0)
	for i := 0; i < 3; i++ {
		k := Key{ID: fmt.Sprintf("T%d", i), Scale: "quick", ContentType: "text/plain"}
		if err := st.Put(k, testEntry("old generation")); err != nil {
			t.Fatal(err)
		}
	}
	st2 := mustOpen(t, dir, "fp2", 0)
	if n := st2.Len(); n != 0 {
		t.Errorf("fingerprint change left %d entries, want 0", n)
	}
	if _, ok := st2.Get(testKey); ok {
		t.Error("stale entry served after fingerprint change")
	}
	// The new generation works.
	if err := st2.Put(testKey, testEntry("new generation")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.Get(testKey); !ok || string(got.Body) != "new generation" {
		t.Errorf("new-generation entry: ok=%v body=%q", ok, got.Body)
	}
}

func TestStaleEmbeddedFingerprintRejectedOnGet(t *testing.T) {
	// Two writers with different fingerprints sharing one directory:
	// even if the FINGERPRINT marker lags (the Open purge raced), the
	// per-entry embedded fingerprint rejects the other's entries.
	dir := t.TempDir()
	old := mustOpen(t, dir, "fp-old", 0)
	if err := old.Put(testKey, testEntry("old binary")); err != nil {
		t.Fatal(err)
	}
	// Simulate the race: a Store whose fingerprint differs from the
	// entry's, without going through Open's purge.
	racer := &Store{dir: dir, fps: Fingerprints{Global: "fp-new"}}
	if _, ok := racer.Get(testKey); ok {
		t.Error("entry with stale embedded fingerprint was served")
	}
	// The mismatch is a miss, not a delete — the entry may be a
	// different live binary's valid work, so the original writer must
	// still see it.
	if _, ok := old.Get(testKey); !ok {
		t.Error("fingerprint-mismatch Get destroyed another writer's entry")
	}
}

func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-orphan")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, past, past); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, ".tmp-live")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	mustOpen(t, dir, "fp1", 0)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	// A sibling writer's in-flight temp is not touched.
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file swept: %v", err)
	}
}

func TestTruncatedEntryReadsAsMissAndHeals(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, "fp1", 0)
	if err := st.Put(testKey, testEntry("whole entry body")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, entryName(testKey))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-write can't truncate (rename is atomic), but disk
	// corruption or an external truncation can.
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(testKey); ok {
		t.Fatal("truncated entry was served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("truncated entry not deleted on detection")
	}
	// The slot heals on the next Put.
	if err := st.Put(testKey, testEntry("rewritten")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(testKey); !ok || string(got.Body) != "rewritten" {
		t.Errorf("healed slot: ok=%v body=%q", ok, got.Body)
	}
}

func TestCorruptBodyFailsChecksum(t *testing.T) {
	// Valid header, wrong bytes: flip the body while keeping the file
	// parseable — only the checksum can catch this.
	dir := t.TempDir()
	st := mustOpen(t, dir, "fp1", 0)
	if err := st.Put(testKey, testEntry("AAAA")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, entryName(testKey))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The raw body follows the header line; swap "AAAA" for "BBBB".
	_, body, _ := bytes.Cut(b, []byte{'\n'})
	if string(body) != "AAAA" {
		t.Fatalf("test setup: body after the header is %q, want %q", body, "AAAA")
	}
	copy(body, "BBBB")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(testKey); ok {
		t.Error("entry with corrupt body served despite checksum")
	}
}

func TestRenamedEntryCannotImpersonate(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, "fp1", 0)
	if err := st.Put(testKey, testEntry("T1 output")); err != nil {
		t.Fatal(err)
	}
	other := Key{ID: "T2", Scale: "quick", ContentType: "text/plain"}
	if err := os.Rename(filepath.Join(dir, entryName(testKey)), filepath.Join(dir, entryName(other))); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(other); ok {
		t.Error("entry served under a key that doesn't match its embedded key")
	}
}

func TestLRUEvictionKeepsRecentlyRead(t *testing.T) {
	dir := t.TempDir()
	// Budget for roughly two entries: each file is the body plus a
	// few hundred bytes of JSON header.
	body := strings.Repeat("x", 4096)
	entSize := sizeOfEntry(t, testKey, body)

	st := mustOpen(t, dir, "fp1", 2*entSize+entSize/2)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = Key{ID: fmt.Sprintf("E%d", i), Scale: "quick", ContentType: "text/plain"}
	}
	if err := st.Put(keys[0], testEntry(body)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // distinct mtimes on coarse filesystems
	if err := st.Put(keys[1], testEntry(body)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	// Touch keys[0] so keys[1] is now the least recently used.
	if _, ok := st.Get(keys[0]); !ok {
		t.Fatal("keys[0] evicted below budget")
	}
	time.Sleep(10 * time.Millisecond)
	if err := st.Put(keys[2], testEntry(body)); err != nil {
		t.Fatal(err)
	}

	if _, ok := st.Get(keys[1]); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := st.Get(keys[0]); !ok {
		t.Error("recently read entry was evicted")
	}
	if _, ok := st.Get(keys[2]); !ok {
		t.Error("just-written entry was evicted by its own Put")
	}
	// Three bodies written, one evicted, three hits served.
	want := Counts{Evictions: 1, PutBytes: 3 * 4096, GetBytes: 3 * 4096}
	if got := st.Counts(); got != want {
		t.Errorf("Counts() = %+v, want %+v", got, want)
	}
}

func TestConcurrentWritersSharingDirectory(t *testing.T) {
	// The daemon and CLI case: two Store handles (as two processes
	// would hold) over one directory, concurrently writing and
	// reading overlapping keys. Every Get must return either a miss
	// or a complete, self-consistent entry.
	dir := t.TempDir()
	daemon := mustOpen(t, dir, "fp1", 0)
	cli := mustOpen(t, dir, "fp1", 0)

	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = Key{ID: fmt.Sprintf("X%d", i), Scale: "quick", ContentType: "application/json"}
	}
	var wg sync.WaitGroup
	for w, st := range []*Store{daemon, cli} {
		wg.Add(1)
		go func(w int, st *Store) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, k := range keys {
					body := fmt.Sprintf("writer%d round%d key%d", w, round, i)
					if err := st.Put(k, testEntry(body)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			}
		}(w, st)
		wg.Add(1)
		go func(st *Store) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				for _, k := range keys {
					if e, ok := st.Get(k); ok {
						if want := `"etag-of-` + string(e.Body) + `"`; e.ETag != want {
							t.Errorf("torn entry: etag %q body %q", e.ETag, e.Body)
							return
						}
					}
				}
			}
		}(st)
	}
	wg.Wait()
	// Last writer wins per key; every key is present and valid.
	for _, k := range keys {
		if _, ok := daemon.Get(k); !ok {
			t.Errorf("key %v missing after concurrent writes", k)
		}
	}
}

func TestEntryNameEscaping(t *testing.T) {
	k := Key{ID: "weird/id", Scale: "quick", ContentType: "text/plain"}
	name := entryName(k)
	if strings.ContainsAny(name, "/") {
		t.Errorf("entry name %q contains a path separator", name)
	}
	// Distinct keys map to distinct names even when naive joins would
	// collide.
	k2 := Key{ID: "weird", Scale: "id@quick", ContentType: "text/plain"}
	if entryName(k2) == name {
		t.Errorf("distinct keys collide on %q", name)
	}
	st := mustOpen(t, t.TempDir(), "fp1", 0)
	if err := st.Put(k, testEntry("escaped")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(k); !ok || string(got.Body) != "escaped" {
		t.Errorf("escaped key round trip: ok=%v body=%q", ok, got.Body)
	}
}

func TestOpenRejectsEmptyFingerprint(t *testing.T) {
	if _, err := Open(t.TempDir(), Fingerprints{}, 0); err == nil {
		t.Error("Open accepted an empty fingerprint")
	}
}

// TestPlatformQualifiedKeys pins the platform axis of the key space:
// a default-platform entry and a platform-qualified one for the same
// (id, scale, content type) live in distinct slots, each validates
// only under its own key, and a renamed file cannot cross the axis.
func TestPlatformQualifiedKeys(t *testing.T) {
	st := mustOpen(t, t.TempDir(), "fp1", 0)
	def := Key{ID: "T1", Scale: "quick", ContentType: "text/plain"}
	plat := Key{ID: "T1", Scale: "quick", Platform: "gige-8n", ContentType: "text/plain"}
	if entryName(def) == entryName(plat) {
		t.Fatalf("default and platform-qualified keys share a filename %q", entryName(def))
	}
	if err := st.Put(def, testEntry("default set")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(plat, testEntry("gige only")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(def); !ok || string(got.Body) != "default set" {
		t.Errorf("default key: ok=%v body=%q", ok, got.Body)
	}
	if got, ok := st.Get(plat); !ok || string(got.Body) != "gige only" {
		t.Errorf("platform key: ok=%v body=%q", ok, got.Body)
	}
}
