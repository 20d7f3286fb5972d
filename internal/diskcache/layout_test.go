// Entry-file layout tests: a file is one JSON header line followed by
// the raw body, so whatever bytes a body holds must come back verbatim,
// and a file cut anywhere must read as a miss that heals, never as a
// hit on the bytes that survived.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestBodyBytesRoundTrip(t *testing.T) {
	st := mustOpen(t, t.TempDir(), "fp1", 0)
	for name, body := range map[string]string{
		"newlines":   "\nfirst line\n\nlast line\n",
		"nul":        "a\x00b\x00\x00",
		"non_utf8":   "\xff\xfe\x80 not text \xc3\x28",
		"header_ish": "{\"format\":3}\n{\"format\":4}\n",
		"empty":      "",
	} {
		t.Run(name, func(t *testing.T) {
			if err := st.Put(testKey, testEntry(body)); err != nil {
				t.Fatal(err)
			}
			got, ok := st.Get(testKey)
			if !ok {
				t.Fatal("Get missed a just-put key")
			}
			if !bytes.Equal(got.Body, []byte(body)) {
				t.Errorf("body = %q, want %q", got.Body, body)
			}
		})
	}
}

func TestEscapedKeyComponentsRoundTrip(t *testing.T) {
	st := mustOpen(t, t.TempDir(), "fp1", 0)
	k := Key{ID: "id/with@at%", Scale: "quick \"quoted\"", Platform: "plat\nform\\é", ContentType: "text/plain; charset=utf-8"}
	if err := st.Put(k, testEntry("escaped key")); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(k)
	if !ok || string(got.Body) != "escaped key" {
		t.Fatalf("escaped key round trip: ok=%v body=%q", ok, got.Body)
	}
	b, err := os.ReadFile(filepath.Join(st.Dir(), entryName(k)))
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := bytes.Cut(b, []byte{'\n'}); !json.Valid(header) {
		t.Errorf("the file's first line is not the whole header: %q", header)
	}
}

// TestCutEntryIsChecksumMissAndDeleted: a file cut inside its header
// has no header line at all; one cut inside its body has a header whose
// checksum no longer matches. Both are corrupt for every reader.
func TestCutEntryIsChecksumMissAndDeleted(t *testing.T) {
	body := "a body long enough to cut in the middle"
	probe := t.TempDir()
	if err := mustOpen(t, probe, "fp1", 0).Put(testKey, testEntry(body)); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(probe, entryName(testKey)))
	if err != nil {
		t.Fatal(err)
	}
	headerLen := bytes.IndexByte(whole, '\n')
	for name, n := range map[string]int{
		"in_header":    headerLen / 2,
		"before_body":  headerLen,
		"at_body":      headerLen + 1,
		"in_body":      headerLen + 1 + len(body)/2,
		"one_byte_off": len(whole) - 1,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir, "fp1", 0)
			path := filepath.Join(dir, entryName(testKey))
			if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get(testKey); ok {
				t.Error("cut entry served")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("cut entry not deleted on Get: %v", err)
			}
			if got := st.Counts().InvalidatedChecksum; got != 1 {
				t.Errorf("checksum invalidations = %d, want 1", got)
			}
		})
	}
}

// TestRetiredV3EntriesPurgedAsFormat is the first open after a deploy
// that moved the store to the header-plus-body layout: the parent's v3
// marker forces a reconcile even though the registry is unchanged, and
// each whole-JSON v3 file — valid in its own format, but decoding here
// with an empty body — is purged as reason="format", not as corruption.
func TestRetiredV3EntriesPurgedAsFormat(t *testing.T) {
	dir := t.TempDir()
	fps := perIDFingerprints("gen1", map[string]string{"T1": "fpT1"})
	for _, plat := range []string{"", "gige-8n"} {
		e := testEntry("a v3 result on " + plat)
		writeWholeJSONEntry(t, dir, fileEntry{Format: 3, Fingerprint: "fpT1", ID: "T1", Scale: "quick",
			Platform: plat, ContentType: testKey.ContentType, ETag: e.ETag, ElapsedNS: int64(e.Elapsed),
			SHA256: bodySum(e.Body), Body: e.Body})
	}
	// The parent's marker: same registry, format 3.
	if err := os.WriteFile(filepath.Join(dir, fpFile), []byte("v3 "+fps.Global), 0o644); err != nil {
		t.Fatal(err)
	}

	st := mustOpenFPS(t, dir, fps, 0)
	if n := st.StalePurged(); n != 2 {
		t.Errorf("StalePurged = %d, want 2", n)
	}
	if got := st.Counts().InvalidatedFormat; got != 2 {
		t.Errorf("format invalidations = %d, want 2", got)
	}
	if got := st.Counts().InvalidatedChecksum; got != 0 {
		t.Errorf("checksum invalidations = %d, want 0", got)
	}
	if n := st.Len(); n != 0 {
		t.Errorf("%d v3 files survived the reconcile", n)
	}
	if n := mustOpenFPS(t, dir, fps, 0).StalePurged(); n != 0 {
		t.Errorf("StalePurged = %d on the following open, want 0", n)
	}
}

// FuzzEntryFile plants arbitrary bytes under an entry's name. Get must
// never panic, and a hit must be the bytes after the file's first
// newline, hashing to the sha256 its header names.
func FuzzEntryFile(f *testing.F) {
	valid, err := encodeEntry(fileEntry{Format: entryFormat, Fingerprint: "fp1", ID: testKey.ID,
		Scale: testKey.Scale, ContentType: testKey.ContentType, ElapsedNS: 42,
		SHA256: bodySum([]byte("body\n\x00")), Body: []byte("body\n\x00")})
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal(wholeJSONEntry{fileEntry{Format: 3, Fingerprint: "fp1", ID: testKey.ID,
		Scale: testKey.Scale, ContentType: testKey.ContentType, SHA256: bodySum([]byte("x"))}, []byte("x")})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{valid, valid[:len(valid)-2], append(legacy, '\n'), {}, []byte("\n"), []byte("{}\n")} {
		f.Add(seed)
	}
	st, err := Open(f.TempDir(), Fingerprints{Global: "fp1"}, 0)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(st.Dir(), entryName(testKey))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := st.Get(testKey)
		if !ok {
			return
		}
		header, body, _ := bytes.Cut(data, []byte{'\n'})
		var h struct {
			SHA256 string `json:"sha256"`
		}
		if err := json.Unmarshal(header, &h); err != nil {
			t.Fatalf("hit on a file whose header does not parse: %v", err)
		}
		if !bytes.Equal(e.Body, body) {
			t.Fatalf("hit body %q is not the bytes after the header %q", e.Body, body)
		}
		if sum := sha256.Sum256(e.Body); hex.EncodeToString(sum[:]) != h.SHA256 {
			t.Fatalf("hit body hashes to %x, header names %s", sum, h.SHA256)
		}
	})
}
