// Package diskcache persists filled experiment results between
// process restarts — the disk layer under internal/serve's in-memory
// cache, shared by the charhpcd daemon and charhpc CLI runs.
//
// A Store is a flat directory of entry files, one per key, each
// carrying an opaque body, the run's wall time, and the fingerprint of
// the experiment that produced it. A file (format 4) is one line of
// JSON header followed by the raw body bytes, so a read decodes only
// the few hundred header bytes and slices the body out unchanged.
// internal/serve keeps one file per result — (experiment id, scale,
// platform) under a single content type, all representations framed
// in the body — so whatever a reader gets came from one writer's one
// rename. Correctness properties:
//
//   - Crash safety: entries are written to a temp file, fsynced, and
//     renamed into place, so readers only ever see whole entries.
//   - Corrupt-entry recovery: every body is checksummed at write time;
//     a truncated or bit-rotted file fails validation on Get, is
//     deleted, and reads as a miss (the caller re-runs and re-writes).
//   - Incremental self-invalidation: every entry embeds the
//     per-experiment fingerprint (Fingerprints.For) of the binary that
//     wrote it. When the store's recorded generation matches the
//     caller's global fingerprint, nothing changed and every entry is
//     kept; when it differs, Open walks the entries and removes ONLY
//     those whose experiment fingerprint no longer validates — a
//     deploy that changed one experiment cold-starts that experiment,
//     not the store. Get re-validates per entry, so stale results can
//     never be served even mid-race.
//   - Format versioning: entry files carry a format version, and the
//     generation marker names it. An entry in any other format — older
//     or unknown — reads as a miss and is purged by the next
//     reconcile, counted under reason="format". Retired formats were
//     one JSON object with the body base64-encoded inside it; their
//     first line still parses as a header, names its format and is
//     purged as such.
//   - Bounded size: with a positive maxBytes budget, Put evicts the
//     least-recently-used entries (Get touches the file's mtime) until
//     preset and custom-platform entries each fit it.
//
// The store counts what it does (invalidations by reason, evictions,
// body bytes Get served and Put wrote) and Counts reads the totals.
// Nothing is wired in, so the purges of Open's reconcile are counted
// by the time Open returns. Callers time Get and Put themselves.
//
// Multiple processes may share one directory: atomic renames make
// concurrent writers last-one-wins per key, and validation makes
// concurrent eviction or purging read as misses, never errors. Two
// binaries of different entry formats sharing a directory (a v3 and a
// v4 during a rolling deploy) churn each other's entries — each one's
// open purges the other's files and each one re-runs what it misses —
// but neither ever serves the other's bytes.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	entryExt = ".entry"
	fpFile   = "FINGERPRINT"
)

// entryFormat is the current on-disk entry format version. Version 4
// is one JSON header line followed by the raw body (see encodeEntry).
// Versions 1 to 3 were one JSON object with the body base64-encoded
// inside it: version 3 one file per result, version 2 one file per
// content type, and legacy (version 1) entries had no format field.
// Entries of any other format are treated as misses but never deleted
// on Get — they may be a sibling binary's valid work; Open's reconcile
// purges them. Binaries of two formats sharing one directory therefore
// purge and rewrite each other's entries, but never serve them.
const entryFormat = 4

// marker is the content of the directory's generation marker file: the
// entry format and the global fingerprint, so a change to either one
// triggers a reconcile.
func marker(global string) string { return fmt.Sprintf("v%d %s", entryFormat, global) }

// Fingerprints carries the caller's registry identity at both
// granularities: Global is the hash of the whole per-experiment map
// (the store's cheap "nothing changed" generation marker), and PerID
// maps each experiment to the fingerprint its entries must embed.
// With PerID nil the store degenerates to the legacy whole-store
// semantics — every entry validates against Global — which is what
// the simpler tests and tools want. With PerID set, an ID absent from
// it is an experiment this binary does not serve: its entries can
// never validate and are purged at the next reconcile.
type Fingerprints struct {
	Global string
	PerID  map[string]string
}

// For returns the fingerprint entries for the given experiment must
// embed to validate. Empty — matching no entry — for an ID outside a
// non-nil PerID: an experiment this binary does not know cannot
// vouch for cached results.
func (f Fingerprints) For(id string) string {
	if f.PerID == nil {
		return f.Global
	}
	return f.PerID[id]
}

// Invalidation reasons, as counted by the store and exposed by serve
// as charhpc_cache_invalidated_total{reason=...}.
const (
	// ReasonExperiment: the entry's experiment fingerprint no longer
	// matches — its dependencies changed across a deploy.
	ReasonExperiment = "experiment"
	// ReasonFormat: the entry's format is not one this binary writes —
	// a legacy (pre-versioning) entry, or an unknown version.
	ReasonFormat = "format"
	// ReasonChecksum: the entry failed integrity validation — corrupt,
	// truncated, misnamed, or unparseable.
	ReasonChecksum = "checksum"
)

// Key identifies one persisted entry: which experiment, at which
// scale, on which platform preset ("" is the experiment's default
// platform set). ContentType is an opaque fourth component — serve
// uses one constant for every result — that remains only because the
// frozen bench/layers.go spells it in a Key literal.
type Key struct {
	ID          string
	Scale       string
	Platform    string
	ContentType string
}

// Entry is one persisted entry: the body and the wall time of the
// execution that produced it. ETag and RunID are opaque strings the
// store round-trips and nothing in the program sets; they remain only
// because the frozen bench/layers.go spells them in an Entry literal.
type Entry struct {
	ETag    string
	RunID   string
	Elapsed time.Duration
	Body    []byte
}

// fileEntry is the on-disk form of an Entry plus everything needed to
// validate it independently of the caller: the format version (absent
// means legacy v1), its own key (so a renamed file can't impersonate
// another), the writer's per-experiment fingerprint and a body
// checksum. Everything but Body is the file's JSON header line; Body
// follows it raw.
type fileEntry struct {
	Format      int    `json:"format,omitempty"`
	Fingerprint string `json:"fingerprint"`
	ID          string `json:"id"`
	Scale       string `json:"scale"`
	Platform    string `json:"platform,omitempty"`
	ContentType string `json:"content_type"`
	ETag        string `json:"etag,omitempty"`
	RunID       string `json:"run_id,omitempty"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	SHA256      string `json:"sha256"`
	Body        []byte `json:"-"`
}

// encodeEntry lays f out as its file: the JSON header, one newline,
// then the body bytes verbatim. json.Marshal escapes every control
// character inside a string, so the header holds no raw newline and
// the file's first '\n' always ends it.
func encodeEntry(f fileEntry) ([]byte, error) {
	h, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	b := make([]byte, 0, len(h)+1+len(f.Body))
	b = append(append(b, h...), '\n')
	return append(b, f.Body...), nil
}

// decodeEntry splits a file at its first newline, decodes the header
// and slices the body out of b. ok is false for a file with no newline
// or an unparseable header. A retired whole-JSON file decodes as its
// header with an empty body, so its format field decides its fate.
func decodeEntry(b []byte) (f fileEntry, ok bool) {
	header, body, found := bytes.Cut(b, []byte{'\n'})
	if !found || json.Unmarshal(header, &f) != nil {
		return fileEntry{}, false
	}
	f.Body = body
	return f, true
}

// Store is a disk-backed entry cache rooted at one directory. Safe for
// concurrent use by multiple goroutines and, via atomic renames and
// per-entry validation, by multiple processes sharing the directory.
type Store struct {
	dir      string
	fps      Fingerprints
	maxBytes int64      // LRU budget of each eviction namespace; 0 = unbounded
	mu       sync.Mutex // serializes eviction scans

	stalePurged int64 // entries removed by Open's generation reconcile

	// Lifetime totals behind Counts.
	invalExperiment, invalFormat, invalChecksum atomic.Int64
	evictions, getBytes, putBytes               atomic.Int64
}

// customPlatformPrefix mirrors cluster.CustomPrefix without importing
// the package: entry filenames whose platform component starts with it
// belong to the custom eviction namespace. The prefix's characters all
// survive escape() verbatim, so matching the escaped filename is exact.
const customPlatformPrefix = "custom-"

// isCustomEntry reports whether an entry filename's platform component
// (the third '@'-separated part) names a custom platform.
func isCustomEntry(name string) bool {
	parts := strings.SplitN(name, "@", 4)
	return len(parts) == 4 && strings.HasPrefix(parts[2], customPlatformPrefix)
}

// Counts is a snapshot of a store's lifetime counts, from Open's
// reconcile on: entries invalidated by reason (ReasonExperiment,
// ReasonFormat, ReasonChecksum), entry files evicted by the LRU budget,
// and body bytes Get served and Put wrote.
type Counts struct {
	InvalidatedExperiment int64
	InvalidatedFormat     int64
	InvalidatedChecksum   int64
	Evictions             int64
	GetBytes              int64
	PutBytes              int64
}

// Counts returns the store's counts, each read atomically.
func (st *Store) Counts() Counts {
	return Counts{
		InvalidatedExperiment: st.invalExperiment.Load(),
		InvalidatedFormat:     st.invalFormat.Load(),
		InvalidatedChecksum:   st.invalChecksum.Load(),
		Evictions:             st.evictions.Load(),
		GetBytes:              st.getBytes.Load(),
		PutBytes:              st.putBytes.Load(),
	}
}

// Open roots a Store at dir (created if absent) for a binary with the
// given fingerprints. If the directory's recorded generation matches
// this binary's (entry format and fps.Global), nothing changed and
// every entry is kept untouched (the fast path across a no-op
// restart). Otherwise Open reconciles the
// delta: entries whose per-experiment fingerprint still validates are
// kept and the rest are removed — StalePurged reports how many. A
// positive maxBytes bounds, via LRU eviction, the entry bytes of preset
// results and, separately, of custom-platform results; 0 means
// unbounded.
func Open(dir string, fps Fingerprints, maxBytes int64) (*Store, error) {
	if fps.Global == "" {
		return nil, fmt.Errorf("diskcache: empty fingerprint")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	st := &Store{dir: dir, fps: fps, maxBytes: maxBytes}
	st.sweepTemps()
	prev, err := os.ReadFile(filepath.Join(dir, fpFile))
	switch {
	case err == nil && string(prev) == marker(fps.Global):
		// Same generation: every entry is still valid; keep them all.
	default:
		// New directory or a generation change: reconcile entry by
		// entry instead of purging the store, then record the new
		// generation. The marker is written LAST, so a crash mid-
		// reconcile re-runs it on the next Open — every step is
		// idempotent (validated entries validate again, removals are
		// removals).
		st.reconcile()
		if err := st.writeFile(fpFile, []byte(marker(fps.Global))); err != nil {
			return nil, err
		}
	}
	st.evictExcept("") // a reopened store may be over a smaller budget
	return st, nil
}

// reconcile walks every entry after a generation change, keeping the
// still-valid and removing the rest, counted by reason: a
// current-format entry survives when its embedded fingerprint equals
// the caller's (non-empty) For(id) — the deploy didn't change its
// experiment; an id with no fingerprint (removed from the registry)
// can never validate. Stale or removed experiments, other formats and
// corrupt bodies are purged. The format is checked before the
// checksum: a retired whole-JSON file decodes with an empty body, and
// is a format purge, not corruption.
func (st *Store) reconcile() {
	for _, de := range st.readDir() {
		name := de.Name()
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		path := filepath.Join(st.dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			continue // removed under us by a sibling process
		}
		f, ok := decodeEntry(b)
		if !ok {
			st.dropStale(path, &st.invalChecksum)
			continue
		}
		if f.Format != entryFormat {
			st.dropStale(path, &st.invalFormat)
			continue
		}
		if name != entryName(Key{f.ID, f.Scale, f.Platform, f.ContentType}) ||
			f.SHA256 != bodySum(f.Body) {
			st.dropStale(path, &st.invalChecksum)
			continue
		}
		if fp := st.fps.For(f.ID); fp == "" || f.Fingerprint != fp {
			st.dropStale(path, &st.invalExperiment)
		}
	}
}

// dropStale removes one entry during reconcile, counting it as both a
// stale purge and an invalidation on its reason's count.
func (st *Store) dropStale(path string, reason *atomic.Int64) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return
	}
	st.stalePurged++
	reason.Add(1)
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Fingerprint returns the global registry fingerprint the store uses
// as its generation marker.
func (st *Store) Fingerprint() string { return st.fps.Global }

// StalePurged reports how many entries Open's generation reconcile
// removed — the keys a deploy actually invalidated. Zero after a
// same-generation open. Served on /healthz as stale_purged=N.
func (st *Store) StalePurged() int64 { return st.stalePurged }

// Get loads the entry for k. Missing, corrupt (failed checksum or
// parse), mismatched-key, wrong-format, or stale-fingerprint files all
// read as a miss; corrupt files are deleted so the slot heals on the
// next Put. A hit refreshes the file's access time for LRU eviction.
func (st *Store) Get(k Key) (Entry, bool) {
	path := filepath.Join(st.dir, entryName(k))
	b, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, false
	}
	f, ok := decodeEntry(b)
	if !ok {
		os.Remove(path)
		st.invalChecksum.Add(1)
		return Entry{}, false
	}
	if f.Format != entryFormat {
		// A legacy or future-format entry: a miss, but NOT a delete —
		// in a shared directory it may be another generation's valid
		// work; Open's reconcile is where retired formats are purged.
		st.invalFormat.Add(1)
		return Entry{}, false
	}
	if fp := st.fps.For(f.ID); fp == "" || f.Fingerprint != fp {
		// Stale, or an experiment this binary doesn't know: a miss,
		// but NOT a delete — in a shared directory this may be
		// another (newer) binary's perfectly valid entry; destroying
		// it would discard that writer's completed runs. Stale files
		// of a retired generation are purged by the next Open.
		st.invalExperiment.Add(1)
		return Entry{}, false
	}
	if f.ID != k.ID || f.Scale != k.Scale || f.Platform != k.Platform ||
		f.ContentType != k.ContentType || f.SHA256 != bodySum(f.Body) {
		// Corrupt or misnamed: valid for nobody, so deleting heals
		// the slot for every sharer.
		os.Remove(path)
		st.invalChecksum.Add(1)
		return Entry{}, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU touch
	st.getBytes.Add(int64(len(f.Body)))
	return Entry{ETag: f.ETag, RunID: f.RunID, Elapsed: time.Duration(f.ElapsedNS), Body: f.Body}, true
}

// Put persists the entry for k atomically (temp file + fsync +
// rename), stamped with k's experiment fingerprint, then evicts
// least-recently-used entries if the directory exceeds the size
// budget. The just-written entry is never evicted by its own Put.
func (st *Store) Put(k Key, e Entry) error {
	fp := st.fps.For(k.ID)
	if fp == "" {
		// An experiment outside PerID has no fingerprint to stamp; a
		// stampless entry could never validate, so refuse it rather
		// than persist dead bytes.
		return fmt.Errorf("diskcache: no fingerprint for experiment %q", k.ID)
	}
	f := fileEntry{
		Format:      entryFormat,
		Fingerprint: fp,
		ID:          k.ID,
		Scale:       k.Scale,
		Platform:    k.Platform,
		ContentType: k.ContentType,
		ETag:        e.ETag,
		RunID:       e.RunID,
		ElapsedNS:   int64(e.Elapsed),
		SHA256:      bodySum(e.Body),
		Body:        e.Body,
	}
	b, err := encodeEntry(f)
	if err != nil {
		return err
	}
	name := entryName(k)
	if err := st.writeFile(name, b); err != nil {
		return err
	}
	st.putBytes.Add(int64(len(e.Body)))
	st.evictExcept(name)
	return nil
}

// Len counts the entries currently on disk (valid or not).
func (st *Store) Len() int {
	n := 0
	for _, de := range st.readDir() {
		if strings.HasSuffix(de.Name(), entryExt) {
			n++
		}
	}
	return n
}

// writeFile writes name under the store dir via temp-file + fsync +
// rename, so concurrent readers never observe a partial file.
func (st *Store) writeFile(name string, b []byte) error {
	tmp, err := os.CreateTemp(st.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(st.dir, name)); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return nil
}

// sweepTemps removes temp files orphaned by a writer that died
// between CreateTemp and Rename. They lack the entry extension, so
// nothing else (Len, eviction) would ever reclaim them. The
// age threshold keeps a live sibling writer's in-flight temp safe — a
// healthy write holds its temp for milliseconds, not an hour.
func (st *Store) sweepTemps() {
	cutoff := time.Now().Add(-time.Hour)
	for _, de := range st.readDir() {
		if !strings.HasPrefix(de.Name(), ".tmp-") {
			continue
		}
		if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(st.dir, de.Name()))
		}
	}
}

// evictExcept removes least-recently-used entries (Get refreshes
// mtimes) until each namespace fits its byte budget, never removing
// the named just-written file. Sizes and times are re-scanned on every
// call — entries number in the low hundreds at most, and a scan stays
// correct when other processes share the directory.
//
// Preset/default entries and custom-platform entries are separate
// namespaces, each held to maxBytes, so the directory can hold twice
// the budget. Each namespace's LRU only ever evicts its own entries, so
// arbitrarily churning custom uploads can exhaust only the custom
// budget — a preset's cached result is never the victim of someone
// else's machine.
func (st *Store) evictExcept(keep string) {
	if st.maxBytes <= 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var preset, custom []os.FileInfo
	for _, de := range st.readDir() {
		if !strings.HasSuffix(de.Name(), entryExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // deleted under us by a sibling process
		}
		if isCustomEntry(de.Name()) {
			custom = append(custom, info)
		} else {
			preset = append(preset, info)
		}
	}
	st.evictNamespace(preset, st.maxBytes, keep)
	st.evictNamespace(custom, st.maxBytes, keep)
}

// evictNamespace drops one namespace's least-recently-used files until
// it fits its budget (0 = unbounded). Callers hold st.mu.
func (st *Store) evictNamespace(files []os.FileInfo, budget int64, keep string) {
	if budget <= 0 {
		return
	}
	var total int64
	for _, f := range files {
		total += f.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].ModTime().Before(files[j].ModTime()) })
	for _, f := range files {
		if total <= budget {
			return
		}
		if f.Name() == keep {
			continue
		}
		os.Remove(filepath.Join(st.dir, f.Name()))
		st.evictions.Add(1)
		total -= f.Size()
	}
}

func (st *Store) readDir() []os.DirEntry {
	des, _ := os.ReadDir(st.dir)
	return des
}

// bodySum is the integrity checksum stored with each entry — hex
// SHA-256 of the body bytes, verified on every Get.
func bodySum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// entryName maps a key to its filename: the four escaped components
// joined with '@' (never produced by the escape, so the mapping is
// injective) plus the entry extension. A default-platform key keeps
// an empty platform component — e.g.
// "T1@quick@@application%2Fvnd.charhpc.result-set.entry" —
// so default and platform-qualified entries can never collide.
func entryName(k Key) string {
	return escape(k.ID) + "@" + escape(k.Scale) + "@" + escape(k.Platform) + "@" + escape(k.ContentType) + entryExt
}

// escape keeps [A-Za-z0-9._-] and percent-encodes everything else, so
// any key component becomes a safe, unambiguous filename fragment.
func escape(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			sb.WriteByte(c)
		default:
			fmt.Fprintf(&sb, "%%%02X", c)
		}
	}
	return sb.String()
}
