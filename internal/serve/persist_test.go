package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
)

func openStore(t *testing.T, dir, fp string) *diskcache.Store {
	t.Helper()
	st, err := diskcache.Open(dir, diskcache.Fingerprints{Global: fp}, 0)
	if err != nil {
		t.Fatalf("diskcache.Open: %v", err)
	}
	return st
}

// TestDiskPersistAcrossRestart is the acceptance scenario: a second
// daemon over a warm cache directory serves a previously cached
// (id, scale) byte-identically without re-executing the experiment.
func TestDiskPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int32
	run := stubRun(&runs, time.Millisecond)

	ts1 := newTestServer(t, Config{RunFunc: run, Store: openStore(t, dir, "fpA")})
	resp, body1 := doGet(t, ts1.URL+"/experiments/T1", "application/json", "")
	if resp.StatusCode != 200 {
		t.Fatalf("first get: %d %s", resp.StatusCode, body1)
	}
	etag1 := resp.Header.Get("ETag")
	elapsed1 := resp.Header.Get("X-Experiment-Elapsed")
	if runs.Load() != 1 {
		t.Fatalf("first daemon ran %d times, want 1", runs.Load())
	}

	// "Restart": a fresh server and store handle over the same dir.
	srv2 := New(Config{RunFunc: run, Store: openStore(t, dir, "fpA")})
	ts2 := newHTTPTestServer(t, srv2)
	resp, body2 := doGet(t, ts2.URL+"/experiments/T1", "application/json", "")
	if resp.StatusCode != 200 {
		t.Fatalf("post-restart get: %d %s", resp.StatusCode, body2)
	}
	if runs.Load() != 1 {
		t.Errorf("restart re-ran the experiment (runs=%d, want 1)", runs.Load())
	}
	if body2 != body1 || resp.Header.Get("ETag") != etag1 {
		t.Error("restarted daemon served different bytes or ETag")
	}
	if got := resp.Header.Get("X-Experiment-Elapsed"); got != elapsed1 {
		t.Errorf("original wall time lost across restart: %q want %q", got, elapsed1)
	}
	if st := srv2.Stats(); st.Runs != 0 || st.DiskLoads != 1 {
		t.Errorf("restart stats = %+v, want Runs=0 DiskLoads=1", st)
	}

	// Every representation survives, each with its own ETag.
	respText, _ := doGet(t, ts2.URL+"/experiments/T1", "text/plain", "")
	respCSV, _ := doGet(t, ts2.URL+"/experiments/T1", "text/csv", "")
	if respText.StatusCode != 200 || respCSV.StatusCode != 200 {
		t.Errorf("text/csv after restart: %d/%d", respText.StatusCode, respCSV.StatusCode)
	}
	if runs.Load() != 1 {
		t.Errorf("negotiation after restart re-ran (runs=%d)", runs.Load())
	}
}

// newHTTPTestServer hosts an already-built Server (newTestServer
// builds its own, which hides the *Server needed for Stats).
func newHTTPTestServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestRestartLoadsFromDiskWithoutRunning: keys a first server filled
// load from disk on a restarted server's first GETs, run nothing, and
// keep serving from memory after.
func TestRestartLoadsFromDiskWithoutRunning(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int32
	run := stubRun(&runs, 0)
	keys := []deployKey{{id: "T1"}, {id: "T4"}}

	srv1 := New(Config{RunFunc: run, Store: openStore(t, dir, "fpA")})
	getKeys(t, newHTTPTestServer(t, srv1).URL, keys)
	if st := srv1.Stats(); st.Runs != 2 {
		t.Fatalf("first fill ran %d, want 2", st.Runs)
	}

	srv2 := New(Config{RunFunc: run, Store: openStore(t, dir, "fpA")})
	ts := newHTTPTestServer(t, srv2)
	getKeys(t, ts.URL, keys)
	if st := srv2.Stats(); st.Runs != 0 || st.DiskLoads != 2 {
		t.Errorf("restart fill stats = %+v, want Runs=0 DiskLoads=2 (all from disk)", st)
	}
	// And the loaded entries actually serve.
	resp, body := doGet(t, ts.URL+"/experiments/T4", "", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "answer") {
		t.Errorf("disk-loaded entry not served: %d %q", resp.StatusCode, body)
	}
	if runs.Load() != 2 {
		t.Errorf("serving disk-loaded entries re-ran (runs=%d, want 2)", runs.Load())
	}
	if st := srv2.Stats(); st.DiskLoads != 2 {
		t.Errorf("disk_loads=%d after serving loaded keys again, want 2", st.DiskLoads)
	}
}

func TestFingerprintChangeInvalidatesStore(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int32
	run := stubRun(&runs, 0)

	ts1 := newTestServer(t, Config{RunFunc: run, Store: openStore(t, dir, "fpA")})
	doGet(t, ts1.URL+"/experiments/T1", "", "")
	if runs.Load() != 1 {
		t.Fatalf("setup ran %d, want 1", runs.Load())
	}

	// A new binary/registry generation opens the same directory.
	srv2 := New(Config{RunFunc: run, Store: openStore(t, dir, "fpB")})
	ts2 := newHTTPTestServer(t, srv2)
	resp, _ := doGet(t, ts2.URL+"/experiments/T1", "", "")
	if resp.StatusCode != 200 {
		t.Fatalf("get after invalidation: %d", resp.StatusCode)
	}
	if runs.Load() != 2 {
		t.Errorf("stale entry served across fingerprint change (runs=%d, want 2)", runs.Load())
	}
	if st := srv2.Stats(); st.DiskLoads != 0 {
		t.Errorf("disk_loads=%d after invalidation, want 0", st.DiskLoads)
	}
}

func mustGetExp(t *testing.T, id string) core.Experiment {
	t.Helper()
	e, ok := core.Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e
}

func TestHealthzCounters(t *testing.T) {
	var runs atomic.Int32
	srv := New(Config{RunFunc: stubRun(&runs, 0)})
	ts := newHTTPTestServer(t, srv)
	doGet(t, ts.URL+"/experiments/T1", "", "")
	doGet(t, ts.URL+"/experiments/T1", "", "")
	resp, body := doGet(t, ts.URL+"/healthz", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if !strings.Contains(body, "ok runs=1 mem_hits=1 disk_loads=0 disk_errs=0") {
		t.Errorf("healthz counters = %q", body)
	}
}

// TestStoreLoadResultRoundTrip covers the charhpc path: a Result
// persisted with StoreResult and reconstructed with LoadResult
// re-renders every representation byte-identically (ETags included),
// via report.Rebuild.
func TestStoreLoadResultRoundTrip(t *testing.T) {
	store := openStore(t, t.TempDir(), "fpA")
	var runs atomic.Int32
	res := stubRun(&runs, 2*time.Millisecond)(mustGetExp(t, "T1"), core.Request{Scale: core.Quick})
	if err := StoreResult(store, res); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}

	got, ok := LoadResult(store, mustGetExp(t, "T1"), core.Request{Scale: core.Quick})
	if !ok {
		t.Fatal("LoadResult missed a stored result")
	}
	if got.Elapsed != res.Elapsed {
		t.Errorf("elapsed %v, want %v", got.Elapsed, res.Elapsed)
	}
	if got.Rec.Text() != res.Rec.Text() {
		t.Errorf("text round trip:\n got %q\nwant %q", got.Rec.Text(), res.Rec.Text())
	}
	want, err := renderResult(res)
	if err != nil {
		t.Fatal(err)
	}
	round, err := renderResult(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range offered {
		if string(round.reps[ct].body) != string(want.reps[ct].body) || round.reps[ct].etag != want.reps[ct].etag {
			t.Errorf("representation %s not byte-identical after round trip", ct)
		}
	}

	// Unstored results miss.
	if _, ok := LoadResult(store, mustGetExp(t, "T4"), core.Request{Scale: core.Quick}); ok {
		t.Error("LoadResult hit an unstored experiment")
	}
}

// TestDiskWriteFailureStillServes: a read-only cache directory can't
// absorb writes, but the request still succeeds from memory and the
// failure is counted.
func TestDiskWriteFailureStillServes(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir, "fpA")
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Skipf("cannot make dir read-only: %v", err)
	}
	defer os.Chmod(dir, 0o755)
	// Root (CI containers) bypasses permission bits; the failure
	// can't be injected there.
	if f, err := os.CreateTemp(dir, "probe-*"); err == nil {
		f.Close()
		os.Remove(f.Name())
		os.Chmod(dir, 0o755)
		t.Skip("permissions not enforced for this user (running as root)")
	}

	var runs atomic.Int32
	srv := New(Config{RunFunc: stubRun(&runs, 0), Store: store})
	ts := newHTTPTestServer(t, srv)
	resp, _ := doGet(t, ts.URL+"/experiments/T1", "", "")
	if resp.StatusCode != 200 {
		t.Fatalf("get with failing store: %d", resp.StatusCode)
	}
	if st := srv.Stats(); st.DiskErrs == 0 {
		t.Error("failed disk writes not counted")
	}
}

// TestNewExperimentIDsFlowThroughCache asserts the registry is the
// single source of truth end to end: an experiment family added to
// internal/core (here M5/M6, the NUMA placement experiments) is
// listed, served, disk-persisted, and replayed across a restart with
// no serve- or cache-layer changes — and, because core.Fingerprint()
// hashes the registry shape, a store written before the family existed
// could never be replayed into it.
func TestNewExperimentIDsFlowThroughCache(t *testing.T) {
	dir := t.TempDir()
	fp := core.Fingerprint()

	srv1 := New(Config{Store: openStore(t, dir, fp)}) // real core.Run
	ts1 := newHTTPTestServer(t, srv1)
	for _, id := range []string{"M5", "M6"} {
		resp, body := doGet(t, ts1.URL+"/experiments/"+id, "application/json", "")
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d %s", id, resp.StatusCode, body)
		}
		if !strings.Contains(body, "NUMA") {
			t.Errorf("%s body does not look like a NUMA experiment: %.80q", id, body)
		}
	}
	if st := srv1.Stats(); st.Runs != 2 || st.DiskLoads != 0 {
		t.Fatalf("cold stats = %+v, want Runs=2 DiskLoads=0", st)
	}
	etag1 := func(id string) string {
		resp, _ := doGet(t, ts1.URL+"/experiments/"+id, "application/json", "")
		return resp.Header.Get("ETag")
	}

	srv2 := New(Config{Store: openStore(t, dir, fp)})
	ts2 := newHTTPTestServer(t, srv2)
	for _, id := range []string{"M5", "M6"} {
		resp, _ := doGet(t, ts2.URL+"/experiments/"+id, "application/json", "")
		if resp.StatusCode != 200 {
			t.Fatalf("%s after restart: %d", id, resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got != etag1(id) {
			t.Errorf("%s ETag changed across restart: %q vs %q", id, got, etag1(id))
		}
	}
	if st := srv2.Stats(); st.Runs != 0 || st.DiskLoads != 2 {
		t.Errorf("restart stats = %+v, want Runs=0 DiskLoads=2 (fingerprint-valid replay)", st)
	}
}

// TestJSONETagReproducesAcrossServers: two daemons with separate stores
// run F4, a multi-rank modeled experiment, fresh, and give its JSON
// envelope the same strong ETag. The envelope holds no wall time and the
// run is a function of its key, so a router's failover or a restart over
// an empty store serves the ETag a client already holds.
func TestJSONETagReproducesAcrossServers(t *testing.T) {
	var etags [2]string
	for i := range etags {
		ts := newTestServer(t, Config{Store: openStore(t, t.TempDir(), "fpA")})
		resp, body := doGet(t, ts.URL+"/experiments/F4", ctJSON, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: %d %s", i, resp.StatusCode, body)
		}
		etags[i] = resp.Header.Get("ETag")
	}
	if etags[0] == "" || etags[0] != etags[1] {
		t.Errorf("F4 JSON ETags differ across servers: %q vs %q", etags[0], etags[1])
	}
}
