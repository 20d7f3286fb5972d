// Tests, fuzz target and layer benchmarks for the store layout: one
// framed entry per result. The benchmarks are the stages bench/ reports
// as serve.store_result_us and serve.load_result_us.
package serve

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/report"
)

// frame builds a result-set body by hand: a 4-byte big-endian length
// and the bytes, per part.
func frame(parts ...string) []byte {
	var b []byte
	for _, p := range parts {
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(p))), p...)
	}
	return b
}

// TestBadFrameReadsAsMissAndHeals: every frame the decoder rejects is a
// miss on a daemon's load path — the experiment re-runs, nothing counts
// as a disk load — and the rewritten entry then loads.
func TestBadFrameReadsAsMissAndHeals(t *testing.T) {
	good := frame("text", "json", "csv")
	req := core.Request{Scale: core.Quick}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"truncated length", good[:len(good)-5]},
		{"length past the end", append(frame("text", "json"), 0, 0, 0, 9, 'c', 's', 'v')},
		{"trailing bytes", append(frame("text", "json", "csv"), 0)},
		{"a fourth representation", frame("text", "json", "csv", "xml")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := decodeResultSet(tc.body); ok {
				t.Fatal("decoder accepted the frame")
			}
			dir := t.TempDir()
			store := openStore(t, dir, "fpA")
			if err := store.Put(storeKey("T1", req), diskcache.Entry{Elapsed: time.Millisecond, Body: tc.body}); err != nil {
				t.Fatal(err)
			}
			var runs atomic.Int32
			srv := New(Config{RunFunc: stubRun(&runs, 0), Store: store})
			doGet(t, newHTTPTestServer(t, srv).URL+"/experiments/T1", "", "")
			if st := srv.Stats(); runs.Load() != 1 || st.Runs != 1 || st.DiskLoads != 0 {
				t.Errorf("bad frame: runs=%d stats=%+v, want one run and no disk load", runs.Load(), st)
			}

			srv2 := New(Config{RunFunc: stubRun(&runs, 0), Store: openStore(t, dir, "fpA")})
			doGet(t, newHTTPTestServer(t, srv2).URL+"/experiments/T1", "", "")
			if st := srv2.Stats(); runs.Load() != 1 || st.DiskLoads != 1 {
				t.Errorf("rewritten entry: runs=%d stats=%+v, want a disk load and no run", runs.Load(), st)
			}
		})
	}

	// A zero-length representation is a valid frame, not a bad one.
	reps, ok := decodeResultSet(frame("text", "", "csv"))
	if !ok || len(reps[ctJSON].body) != 0 || reps[ctJSON].etag != etagOf(nil) || string(reps[ctCSV].body) != "csv" {
		t.Errorf("zero-length representation: ok=%v reps=%v", ok, reps)
	}
}

// FuzzDecodeResultSet: the decoder never panics, inverts the encoder,
// and accepts only canonical input — whatever it accepts re-encodes to
// the same bytes.
func FuzzDecodeResultSet(f *testing.F) {
	f.Add([]byte(nil), []byte("text"), []byte("{}"), []byte("a,b\n"))
	f.Add(frame("text", "json", "csv"), []byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, raw, text, jsonb, csv []byte) {
		if reps, ok := decodeResultSet(raw); ok {
			if again := encodeResultSet(reps); !bytes.Equal(again, raw) {
				t.Errorf("accepted %q but re-encoded it as %q", raw, again)
			}
		}
		in := map[string]rep{ctText: {body: text}, ctJSON: {body: jsonb}, ctCSV: {body: csv}}
		out, ok := decodeResultSet(encodeResultSet(in))
		if !ok {
			t.Fatalf("decoder rejected the encoder's output for %q %q %q", text, jsonb, csv)
		}
		for _, ct := range offered {
			if !bytes.Equal(out[ct].body, in[ct].body) || out[ct].etag != etagOf(in[ct].body) {
				t.Errorf("%s did not round-trip: %q -> %q (%s)", ct, in[ct].body, out[ct].body, out[ct].etag)
			}
		}
	})
}

// TestRacingWritersNeverMixOnDisk: two daemons over one directory fill
// the same key with different bytes at the same time. Last writer wins,
// and whichever it was, a third daemon loads text, CSV and JSON that
// all came from that one writer.
func TestRacingWritersNeverMixOnDisk(t *testing.T) {
	e, req := mustGetExp(t, "T1"), core.Request{Scale: core.Quick}
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		// Both runs start before either finishes: both writers missed
		// on disk, so both write.
		var running, done sync.WaitGroup
		running.Add(2)
		for _, tag := range []string{"A", "B"} {
			srv := New(Config{Store: openStore(t, dir, "fpA"), RunFunc: func(e core.Experiment, r core.Request) core.Result {
				running.Done()
				running.Wait()
				rec := report.NewRecorder()
				tbl := report.NewTable("written by "+tag, "k", "v")
				tbl.AddRow("writer", tag)
				tbl.Fprint(rec)
				return core.Result{Experiment: e, Req: r, Rec: rec, Elapsed: time.Millisecond}
			}})
			done.Add(1)
			go func() {
				defer done.Done()
				if rs, err := srv.fill(e, req, core.RunHooks{}); err != nil || rs.tier != "run" {
					t.Errorf("writer %s: tier=%q err=%v", tag, rs.tier, err)
				}
			}()
		}
		done.Wait()

		var runs atomic.Int32
		reader := New(Config{Store: openStore(t, dir, "fpA"), RunFunc: stubRun(&runs, 0)})
		rs, err := reader.fill(e, req, core.RunHooks{})
		if err != nil || rs.tier != "disk" {
			t.Fatalf("round %d: third server did not load from disk: tier=%q err=%v", round, rs.tier, err)
		}
		winner := "A"
		if bytes.Contains(rs.reps[ctText].body, []byte("written by B")) {
			winner = "B"
		}
		for _, ct := range offered {
			if !bytes.Contains(rs.reps[ct].body, []byte("written by "+winner)) {
				t.Fatalf("round %d: text is writer %s's but %s is not:\n%s", round, winner, ct, rs.reps[ct].body)
			}
		}
	}
}

// TestDiskLoadServesIdenticalBytes: what a restarted daemon serves from
// a disk load is byte-identical, ETag included, to what the daemon that
// ran the experiment served — for every Accept.
func TestDiskLoadServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int32
	before := newTestServer(t, Config{RunFunc: stubRun(&runs, time.Millisecond), Store: openStore(t, dir, "fpA")})
	after := newTestServer(t, Config{RunFunc: stubRun(&runs, time.Millisecond), Store: openStore(t, dir, "fpA")})
	for _, accept := range []string{"text/plain", "text/csv", "application/json"} {
		r1, b1 := doGet(t, before.URL+"/experiments/T1", accept, "")
		r2, b2 := doGet(t, after.URL+"/experiments/T1", accept, "")
		if r1.StatusCode != 200 || r2.StatusCode != 200 {
			t.Fatalf("%s: status %d then %d", accept, r1.StatusCode, r2.StatusCode)
		}
		if b1 != b2 || r1.Header.Get("ETag") != r2.Header.Get("ETag") || r1.Header.Get("Content-Type") != r2.Header.Get("Content-Type") {
			t.Errorf("%s: disk load served %q (%s), the run served %q (%s)",
				accept, b2, r2.Header.Get("ETag"), b1, r1.Header.Get("ETag"))
		}
	}
	if runs.Load() != 1 {
		t.Errorf("runs = %d, want 1 (the second daemon loads from disk)", runs.Load())
	}
}

// benchStoreOf opens a fresh store the way bench/layers.go does.
func benchStoreOf(b *testing.B) *diskcache.Store {
	b.Helper()
	st, err := diskcache.Open(b.TempDir(), diskcache.Fingerprints{Global: "bench"}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkStoreResult(b *testing.B) {
	st, res := benchStoreOf(b), benchResult(b, "F1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := StoreResult(st, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadResult(b *testing.B) {
	st, res := benchStoreOf(b), benchResult(b, "F1")
	if err := StoreResult(st, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := LoadResult(st, res.Experiment, res.Req); !ok {
			b.Fatal("stored result not found")
		}
	}
}
