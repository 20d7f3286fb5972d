// The deploy-upgrade test harness: table-driven "simulated deploy"
// tests that fill a disk store under one registry generation, mutate
// exactly ONE fingerprint dependency (an experiment's identity, one
// preset's parameters, the scale defs, the build identity) by
// perturbing the fingerprints of exactly the experiments core proves
// that axis moves, restart the stack over the same directory, and
// assert the invalidation is exact — every affected key re-runs,
// every other key replays from disk with its original ETag and
// runs=0. A wrong fingerprint silently serves stale science, so the
// harness is as load-bearing as the code it tests.
package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/report"
)

// The deploy matrix: chosen so every mutation axis splits it
// non-trivially. T1 and M3 can run on gige-8n; M5 needs NUMA and
// cannot, so a gige-8n parameter change must leave M5 alone. M5 also
// has no gige-8n key of its own — its default-set entry surviving is
// what proves invalidation is per-experiment-dependency, not
// per-requested-platform.
var (
	deployIDs       = []string{"T1", "M3", "M5"}
	deployPlatforms = []string{"", "gige-8n"}
)

type deployKey struct{ id, platform string }

func (k deployKey) String() string {
	if k.platform == "" {
		return k.id
	}
	return k.id + "@" + k.platform
}

// path is the quick-scale GET that fills or serves k.
func (k deployKey) path() string {
	if k.platform == "" {
		return "/experiments/" + k.id
	}
	return "/experiments/" + k.id + "?platform=" + k.platform
}

// getKeys fills every key on the server at base the way traffic does:
// one blocking GET each.
func getKeys(t *testing.T, base string, keys []deployKey) {
	t.Helper()
	for _, k := range keys {
		if resp, body := doGet(t, base+k.path(), "", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", k, resp.StatusCode, body)
		}
	}
}

// deployMatrix returns the compatible (id, platform) keys of the
// matrix: the ones a GET can fill.
func deployMatrix(t *testing.T) []deployKey {
	t.Helper()
	var keys []deployKey
	for _, id := range deployIDs {
		e, ok := core.Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		for _, p := range deployPlatforms {
			if e.CheckPlatform(p) == nil {
				keys = append(keys, deployKey{id, p})
			}
		}
	}
	return keys
}

// recordingStub is stubRun plus a record of which (id, platform) keys
// executed — the ground truth the harness asserts against.
func recordingStub(ran *sync.Map, runs *atomic.Int32) func(core.Experiment, core.Request) core.Result {
	return func(e core.Experiment, r core.Request) core.Result {
		runs.Add(1)
		ran.Store(deployKey{e.ID, r.Platform}, true)
		rec := report.NewRecorder()
		tbl := report.NewTable("stub", "k", "v")
		tbl.AddRow("answer", 42)
		tbl.Fprint(rec)
		return core.Result{Experiment: e, Req: r, Rec: rec, Elapsed: time.Millisecond}
	}
}

// openDeployStore opens the store the way the daemon does: real
// per-experiment fingerprints from core. moved names the experiments
// whose dependencies the simulated deploy changed (nil: none): their
// fingerprints, and so the global one, differ from this binary's —
// which ids an axis moves is core's contract, proven by its white-box
// fingerprint tests.
func openDeployStore(t *testing.T, dir string, moved func(id string) bool) *diskcache.Store {
	t.Helper()
	fps := diskcache.Fingerprints{Global: core.Fingerprint(), PerID: core.Fingerprints()}
	for id := range fps.PerID {
		if moved != nil && moved(id) {
			fps.PerID[id] += "-deploy-b"
			fps.Global += "-deploy-b"
		}
	}
	st, err := diskcache.Open(dir, fps, 0)
	if err != nil {
		t.Fatalf("diskcache.Open: %v", err)
	}
	return st
}

// captureETags reads every representation's ETag for the given keys
// straight from the disk store.
func captureETags(t *testing.T, st *diskcache.Store, keys []deployKey) map[deployKey]map[string]string {
	t.Helper()
	out := map[deployKey]map[string]string{}
	for _, k := range keys {
		req := core.Request{Scale: core.Quick, Platform: k.platform}
		rs, ok := loadReps(st, nil, k.id, req)
		if !ok {
			t.Fatalf("key %s missing from the filled store", k)
		}
		out[k] = map[string]string{}
		for _, ct := range offered {
			out[k][ct] = rs.reps[ct].etag
		}
	}
	return out
}

func sortedKeys(m map[deployKey]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out
}

// TestSimulatedDeployMatrix is the headline deliverable: one
// dependency mutated per case, exact invalidation asserted per key.
func TestSimulatedDeployMatrix(t *testing.T) {
	keys := deployMatrix(t)
	if len(keys) < 4 {
		t.Fatalf("deploy matrix too small (%d keys) to split meaningfully", len(keys))
	}
	canRunOn := func(id, preset string) bool {
		e, _ := core.Get(id)
		for _, p := range e.Platforms() {
			if p == preset {
				return true
			}
		}
		return false
	}

	cases := []struct {
		name     string
		affected func(deployKey) bool // by the mutated dependency axis
	}{
		{
			// Axis 1: one experiment's identity/Needs.
			name:     "experiment needs",
			affected: func(k deployKey) bool { return k.id == "T1" },
		},
		{
			// Axis 2: one preset's link parameters. Affects every
			// experiment that CAN run on the preset — including their
			// default-set keys, whose result set includes that preset —
			// and no experiment that can't.
			name:     "preset link params",
			affected: func(k deployKey) bool { return canRunOn(k.id, "gige-8n") },
		},
		{
			// Axis 3: the scale definitions — a dependency of everyone.
			name:     "scale defs",
			affected: func(deployKey) bool { return true },
		},
		{
			// Axis 4: the build identity — also global.
			name:     "build identity",
			affected: func(deployKey) bool { return true },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wantAffected := map[deployKey]bool{}
			for _, k := range keys {
				if tc.affected(k) {
					wantAffected[k] = true
				}
			}
			if len(wantAffected) == 0 {
				t.Fatal("case affects nothing — the mutation axis is dead")
			}

			// Deploy A: fill the full matrix under this binary's
			// generation and record every entry's ETag.
			var ranA sync.Map
			var runsA atomic.Int32
			srvA := New(Config{RunFunc: recordingStub(&ranA, &runsA), Store: openDeployStore(t, dir, nil)})
			getKeys(t, newHTTPTestServer(t, srvA).URL, keys)
			if got := int(runsA.Load()); got != len(keys) {
				t.Fatalf("baseline fill ran %d, want %d", got, len(keys))
			}
			etagsA := captureETags(t, srvA.cfg.Store, keys)

			// Deploy B: same directory, one dependency mutated — the
			// affected experiments' fingerprints reach Open changed,
			// exactly as a code change would on a real redeploy.
			movedB := func(id string) bool { return tc.affected(deployKey{id: id}) }
			var ranB sync.Map
			var runsB atomic.Int32
			stB := openDeployStore(t, dir, movedB)
			srvB := New(Config{RunFunc: recordingStub(&ranB, &runsB), Store: stB})
			ts := newHTTPTestServer(t, srvB)
			getKeys(t, ts.URL, keys)

			// Open purged exactly the affected keys' entries.
			if got, want := stB.StalePurged(), int64(len(wantAffected)); got != want {
				t.Errorf("StalePurged = %d, want %d (one entry per affected key)", got, want)
			}

			// Exactly the affected keys re-ran.
			gotRan := map[deployKey]bool{}
			ranB.Range(func(k, _ any) bool { gotRan[k.(deployKey)] = true; return true })
			if got, want := sortedKeys(gotRan), sortedKeys(wantAffected); !equalStrings(got, want) {
				t.Errorf("re-ran %v, want exactly %v", got, want)
			}
			st := srvB.Stats()
			if got, want := st.Runs, int64(len(wantAffected)); got != want {
				t.Errorf("runs = %d after simulated deploy, want %d", got, want)
			}
			if got, want := st.DiskLoads, int64(len(keys)-len(wantAffected)); got != want {
				t.Errorf("disk_loads = %d, want %d (the surviving keys)", got, want)
			}

			// Every surviving key replays its original ETag — on disk
			// and over HTTP from the filled deploy-B server itself.
			for _, k := range keys {
				if wantAffected[k] {
					continue
				}
				rs, ok := loadReps(stB, nil, k.id, core.Request{Scale: core.Quick, Platform: k.platform})
				if !ok {
					t.Errorf("surviving key %s missing after deploy", k)
					continue
				}
				for _, ct := range offered {
					if got := rs.reps[ct].etag; got != etagsA[k][ct] {
						t.Errorf("surviving key %s (%s): ETag %s != original %s", k, ct, got, etagsA[k][ct])
					}
				}
				resp, body := doGet(t, ts.URL+k.path(), "application/json", "")
				if resp.StatusCode != 200 {
					t.Errorf("GET %s after deploy: %d %s", k, resp.StatusCode, body)
					continue
				}
				if got := resp.Header.Get("ETag"); got != etagsA[k][ctJSON] {
					t.Errorf("GET %s: ETag %s != original %s", k, got, etagsA[k][ctJSON])
				}
			}

			// /healthz reports the purge.
			resp, body := doGet(t, ts.URL+"/healthz", "", "")
			if resp.StatusCode != 200 {
				t.Fatalf("healthz: %d", resp.StatusCode)
			}
			if want := fmt.Sprintf("stale_purged=%d\n", len(wantAffected)); !strings.Contains(body, want) {
				t.Errorf("healthz %q does not report %q", strings.TrimSpace(body), want)
			}

			// And the affected keys were re-persisted under the new
			// generation: a third open (same deploy) purges nothing.
			stC := openDeployStore(t, dir, movedB)
			if got := stC.StalePurged(); got != 0 {
				t.Errorf("third open purged %d entries; deploy B left the store dirty", got)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNoOpRedeployLoadsEverything pins the fast path around the
// matrix: an unchanged registry reopens with zero purges, zero runs,
// all disk loads.
func TestNoOpRedeployLoadsEverything(t *testing.T) {
	dir := t.TempDir()
	keys := deployMatrix(t)
	var ran sync.Map
	var runs atomic.Int32
	srvA := New(Config{RunFunc: recordingStub(&ran, &runs), Store: openDeployStore(t, dir, nil)})
	getKeys(t, newHTTPTestServer(t, srvA).URL, keys)
	etagsA := captureETags(t, srvA.cfg.Store, keys)

	var runsB atomic.Int32
	stB := openDeployStore(t, dir, nil)
	srvB := New(Config{RunFunc: recordingStub(&ran, &runsB), Store: stB})
	getKeys(t, newHTTPTestServer(t, srvB).URL, keys)
	if got := stB.StalePurged(); got != 0 {
		t.Errorf("no-op redeploy purged %d entries", got)
	}
	if got := runsB.Load(); got != 0 {
		t.Errorf("no-op redeploy ran %d experiments, want 0", got)
	}
	if got, want := srvB.Stats().DiskLoads, int64(len(keys)); got != want {
		t.Errorf("disk_loads = %d, want %d", got, want)
	}
	for k, etags := range captureETags(t, stB, keys) {
		for ct, etag := range etags {
			if etag != etagsA[k][ct] {
				t.Errorf("%s (%s): ETag changed across a no-op redeploy", k, ct)
			}
		}
	}
}

// TestDiskLoadsEmitNoTraces pins the /debug/traces interaction: a
// restarted server's disk loads replay persisted bytes without
// executing anything, so they must not append spans — empty or
// otherwise — to the trace ring. Only real executions trace.
func TestDiskLoadsEmitNoTraces(t *testing.T) {
	dir := t.TempDir()
	t1 := []deployKey{{id: "T1"}}
	// Deploy A: a REAL run (RunFunc nil -> core.Run), which traces.
	srvA := New(Config{Store: openDeployStore(t, dir, nil)})
	getKeys(t, newHTTPTestServer(t, srvA).URL, t1)
	if got := srvA.Stats().Runs; got != 1 {
		t.Fatalf("baseline fill executed %d, want 1", got)
	}
	if got := len(srvA.traces.Recent(0)); got != 1 {
		t.Fatalf("executed fill produced %d traces, want 1", got)
	}

	// Deploy B, nothing changed: the fill is a disk load.
	srvB := New(Config{Store: openDeployStore(t, dir, nil)})
	ts := newHTTPTestServer(t, srvB)
	getKeys(t, ts.URL, t1)
	if st := srvB.Stats(); st.Runs != 0 || st.DiskLoads != 1 {
		t.Fatalf("restart fill stats = %+v, want Runs=0 DiskLoads=1 (all from disk)", st)
	}
	if got := srvB.traces.Recent(0); len(got) != 0 {
		t.Errorf("disk load emitted %d span trees into the trace ring, want 0", len(got))
	}
	// Serving the loaded entry again stays trace-free too: replays
	// execute nothing.
	doGet(t, ts.URL+"/experiments/T1", "application/json", "")
	if got := srvB.traces.Recent(0); len(got) != 0 {
		t.Errorf("replay added %d traces, want 0", len(got))
	}
}
