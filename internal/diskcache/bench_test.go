// Layer benchmarks for the store, in the shapes bench/layers.go times
// as diskcache.put_us, get_us, open_ms and open_reconcile_ms (2.6 KB
// body, 20 ids x 20 platforms), so a harness delta can be chased with
// go test -bench.
package diskcache

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

const benchIDs, benchPlatforms = 20, 20

var benchEntry = Entry{Elapsed: time.Millisecond, Body: []byte(strings.Repeat("0123456789abcdef", 166))}

func benchKey(i, p int) Key {
	return Key{ID: "E" + strconv.Itoa(i), Scale: "quick", Platform: "p" + strconv.Itoa(p), ContentType: "text/plain"}
}

// benchFPS gives every id fingerprint "fp-1", except that stale ids
// (the first n) move to "fp-2".
func benchFPS(global string, stale int) Fingerprints {
	fps := Fingerprints{Global: global, PerID: map[string]string{}}
	for i := 0; i < benchIDs; i++ {
		fps.PerID["E"+strconv.Itoa(i)] = "fp-1"
		if i < stale {
			fps.PerID["E"+strconv.Itoa(i)] = "fp-2"
		}
	}
	return fps
}

// benchStore opens a store over b.TempDir() holding the full 400 entries.
func benchStore(b *testing.B) *Store {
	b.Helper()
	st, err := Open(b.TempDir(), benchFPS("gen-1", 0), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchIDs; i++ {
		for p := 0; p < benchPlatforms; p++ {
			if err := st.Put(benchKey(i, p), benchEntry); err != nil {
				b.Fatal(err)
			}
		}
	}
	return st
}

func BenchmarkPut(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := st.Put(benchKey(0, n%benchPlatforms), benchEntry); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, ok := st.Get(benchKey(n%benchIDs, n%benchPlatforms)); !ok {
			b.Fatal("stored entry not found")
		}
	}
}

func BenchmarkOpenSameGeneration(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Open(st.Dir(), st.fps, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenReconcile times an open across a generation change that
// invalidates one id of twenty: 400 entries read, 20 removed. The
// removed entries are rewritten off the clock.
func BenchmarkOpenReconcile(b *testing.B) {
	st := benchStore(b)
	gens := []Fingerprints{benchFPS("gen-2", 1), st.fps}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		next, err := Open(st.Dir(), gens[n%2], 0)
		if err != nil {
			b.Fatal(err)
		}
		if got := next.StalePurged(); got != benchPlatforms {
			b.Fatalf("reconcile purged %d entries, want %d", got, benchPlatforms)
		}
		b.StopTimer()
		for p := 0; p < benchPlatforms; p++ {
			if err := next.Put(benchKey(0, p), benchEntry); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}
