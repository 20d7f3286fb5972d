// Tests for the platform resource (GET/POST /platforms), the error
// envelope, the canonical request-validation order, and the custom
// platform's end-to-end path through the caches.
package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lru"
)

// serveCustomSpec is a fully capable user-defined machine: multi-node,
// memory hierarchy, NUMA — compatible with every platform-axis
// experiment.
const serveCustomSpec = `{
  "label": "serve-test quad",
  "topology": {"nodes": 4, "sockets_per_node": 2, "cores_per_socket": 4},
  "links": {
    "self":         {"latency_s": 1e-7, "overhead_s": 1e-7, "gap_s": 1e-8, "bandwidth_bytes_per_s": 12e9},
    "intra_socket": {"latency_s": 3e-7, "overhead_s": 2e-7, "gap_s": 2e-8, "bandwidth_bytes_per_s": 6e9},
    "intra_node":   {"latency_s": 6e-7, "overhead_s": 2e-7, "gap_s": 3e-8, "bandwidth_bytes_per_s": 4e9},
    "inter_node":   {"latency_s": 2e-5, "overhead_s": 1e-6, "gap_s": 1e-6, "bandwidth_bytes_per_s": 1.2e8}
  },
  "mem_bw_per_socket_bytes_per_s": 6.4e9,
  "mem_bw_per_core_bytes_per_s": 2.5e9,
  "flops_per_core": 9.6e9,
  "mem": {
    "name": "serve-test-mem",
    "levels": [
      {"name": "L1", "capacity_bytes": 32768, "latency_s": 1.2e-9},
      {"name": "L2", "capacity_bytes": 262144, "latency_s": 4.5e-9},
      {"name": "L3", "capacity_bytes": 8388608, "latency_s": 1.4e-8}
    ],
    "mem_latency_s": 7.5e-8,
    "tlb": {"entries": 512, "miss_cost_s": 2.2e-8},
    "page_bytes": 4096,
    "large_page_bytes": 2097152,
    "page_fault_cost_s": 1.5e-6,
    "numa": {"nodes": 2, "remote_latency_s": 1.25e-7, "remote_tlb_cost_s": 3e-8}
  }
}`

// serveNoMemSpec is multi-node but carries no memory hierarchy, so
// mem-model experiments (M1-M4) must reject it as incompatible.
const serveNoMemSpec = `{
  "label": "serve-test fabric only",
  "topology": {"nodes": 8, "sockets_per_node": 1, "cores_per_socket": 4},
  "links": {
    "self":         {"latency_s": 1e-7, "overhead_s": 1e-7, "gap_s": 1e-8, "bandwidth_bytes_per_s": 10e9},
    "intra_socket": {"latency_s": 3e-7, "overhead_s": 2e-7, "gap_s": 2e-8, "bandwidth_bytes_per_s": 5e9},
    "intra_node":   {"latency_s": 6e-7, "overhead_s": 2e-7, "gap_s": 3e-8, "bandwidth_bytes_per_s": 3e9},
    "inter_node":   {"latency_s": 5e-5, "overhead_s": 2e-6, "gap_s": 2e-6, "bandwidth_bytes_per_s": 1e8}
  },
  "mem_bw_per_socket_bytes_per_s": 5e9,
  "mem_bw_per_core_bytes_per_s": 2e9,
  "flops_per_core": 8e9
}`

func decodeErrorEnvelope(t *testing.T, body string) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("not an error envelope: %v (%q)", err, body)
	}
	return env
}

// doReq performs one request with an optional Accept header and body,
// returning the response with its body read.
func doReq(t *testing.T, method, url, accept, contentType, body string) (*http.Response, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func postSpec(t *testing.T, tsURL, spec string) (*http.Response, registerResponse) {
	t.Helper()
	resp, body := doReq(t, "POST", tsURL+"/platforms", "application/json", "application/json", spec)
	var reg registerResponse
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &reg); err != nil {
			t.Fatalf("bad register response: %v (%q)", err, body)
		}
	}
	return resp, reg
}

func TestPlatformRegisterLifecycle(t *testing.T) {
	t.Cleanup(cluster.PurgeCustoms)
	ts := newTestServer(t, Config{})

	resp, reg := postSpec(t, ts.URL, serveCustomSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first POST got %d, want 201", resp.StatusCode)
	}
	if !cluster.IsCustomName(reg.Name) || reg.Kind != "custom" || reg.Existed {
		t.Fatalf("register response wrong: %+v", reg)
	}
	if got := resp.Header.Get("Location"); got != "/platforms/"+reg.Name {
		t.Errorf("Location = %q, want /platforms/%s", got, reg.Name)
	}
	if len(reg.Caps) == 0 || len(reg.Experiments) == 0 {
		t.Errorf("register response missing caps or compatible experiments: %+v", reg)
	}

	// Re-POSTing the same machine — different formatting, same content —
	// is idempotent: 200, existed, the same content-hash name.
	reposted := strings.ReplaceAll(serveCustomSpec, "\n", " ")
	resp2, reg2 := postSpec(t, ts.URL, reposted)
	if resp2.StatusCode != http.StatusOK || !reg2.Existed || reg2.Name != reg.Name {
		t.Errorf("re-POST got %d existed=%v name=%q, want 200/true/%q",
			resp2.StatusCode, reg2.Existed, reg2.Name, reg.Name)
	}

	// The listing carries presets and the new custom, caps included.
	_, lbody := doGet(t, ts.URL+"/platforms", "application/json", "")
	var list []platformInfo
	if err := json.Unmarshal([]byte(lbody), &list); err != nil {
		t.Fatalf("bad platform listing: %v", err)
	}
	if len(list) != len(cluster.Names())+1 {
		t.Errorf("listing has %d platforms, want %d presets + 1 custom", len(list), len(cluster.Names()))
	}
	found := false
	for _, p := range list {
		if p.Name == reg.Name {
			found = true
			if p.Kind != "custom" || p.Label != "serve-test quad" {
				t.Errorf("custom listing row wrong: %+v", p)
			}
		}
		if p.Caps == nil || p.Experiments == nil {
			t.Errorf("listing row %s has null caps or experiments", p.Name)
		}
	}
	if !found {
		t.Errorf("custom %s missing from the listing", reg.Name)
	}

	// The detail view returns the canonical spec for re-registration.
	_, dbody := doGet(t, ts.URL+"/platforms/"+reg.Name, "application/json", "")
	var detail platformDetail
	if err := json.Unmarshal([]byte(dbody), &detail); err != nil {
		t.Fatalf("bad platform detail: %v", err)
	}
	if len(detail.Spec) == 0 {
		t.Error("custom detail carries no spec")
	}
	respec, err := cluster.ParseSpec(detail.Spec)
	if err != nil {
		t.Fatalf("detail spec does not re-parse: %v", err)
	}
	if respec.Name() != reg.Name {
		t.Errorf("detail spec re-registers as %q, want %q", respec.Name(), reg.Name)
	}

	// Preset details work too, without a spec.
	resp3, pbody := doGet(t, ts.URL+"/platforms/gige-8n", "application/json", "")
	if resp3.StatusCode != 200 || strings.Contains(pbody, `"spec"`) {
		t.Errorf("preset detail: %d %q", resp3.StatusCode, pbody)
	}

	// Unknown names 404 with the envelope code.
	resp4, ebody := doGet(t, ts.URL+"/platforms/custom-000000000000", "application/json", "")
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown platform detail got %d, want 404", resp4.StatusCode)
	}
	if env := decodeErrorEnvelope(t, ebody); env.Code != codeUnknownPlatform {
		t.Errorf("unknown platform detail code = %q", env.Code)
	}

	// healthz counts the registration.
	_, hbody := doGet(t, ts.URL+"/healthz", "", "")
	if !strings.Contains(hbody, "custom_platforms=1") {
		t.Errorf("healthz does not count the custom: %q", hbody)
	}
}

func TestPlatformRegisterRejects(t *testing.T) {
	t.Cleanup(cluster.PurgeCustoms)
	ts := newTestServer(t, Config{})

	// An invalid spec draws invalid_platform, not a bare 400.
	resp, body := doReq(t, "POST", ts.URL+"/platforms", "application/json", "application/json",
		`{"topology": {"nodes": 0}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec got %d, want 400", resp.StatusCode)
	}
	if env := decodeErrorEnvelope(t, body); env.Code != codeInvalidPlatform {
		t.Errorf("invalid spec code = %q, want %q", env.Code, codeInvalidPlatform)
	}

	// A body past DefaultMaxPlatformBody is cut off with 413 before
	// parsing.
	big := `{"pad": "` + strings.Repeat("x", DefaultMaxPlatformBody) + `"}`
	resp, body = doReq(t, "POST", ts.URL+"/platforms", "application/json", "application/json", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec got %d, want 413", resp.StatusCode)
	}
	if env := decodeErrorEnvelope(t, body); env.Code != codeBodyTooLarge {
		t.Errorf("oversized spec code = %q, want %q", env.Code, codeBodyTooLarge)
	}

	// Nothing slipped into the registry.
	if n := cluster.CustomCount(); n != 0 {
		t.Errorf("rejected specs registered %d platforms", n)
	}
}

// TestValidationOrderCanonical pins the one validation precedence every
// run entry point applies: experiment existence, then scale syntax,
// then the platform axis, then the server's scale limit. The blocking
// GET and the async POST /runs must draw identical codes from
// identical bad requests.
func TestValidationOrderCanonical(t *testing.T) {
	ts := newTestServer(t, Config{}) // quick-limited
	cases := []struct {
		name                string
		id, scale, platform string
		status              int
		code                string
	}{
		{"experiment before scale and platform", "Z9", "huge", "cray-1",
			http.StatusNotFound, codeUnknownExperiment},
		{"scale syntax before platform", "T1", "huge", "cray-1",
			http.StatusBadRequest, codeInvalidScale},
		{"platform before scale limit", "T1", "full", "cray-1",
			http.StatusBadRequest, codeUnknownPlatform},
		{"incompatibility before scale limit", "F1", "full", "smp-1n",
			http.StatusBadRequest, codeIncompatiblePlatform},
		{"scale limit last", "T1", "full", "gige-8n",
			http.StatusForbidden, codeScaleLimit},
		{"scale limit without platform", "T1", "full", "",
			http.StatusForbidden, codeScaleLimit},
	}
	for _, c := range cases {
		get := ts.URL + "/experiments/" + c.id + "?scale=" + c.scale + "&platform=" + c.platform
		post := ts.URL + "/runs?id=" + c.id + "&scale=" + c.scale + "&platform=" + c.platform
		for entry, u := range map[string]string{"GET": get, "POST /runs": post} {
			method := "GET"
			if entry != "GET" {
				method = "POST"
			}
			resp, body := doReq(t, method, u, "application/json", "", "")
			if resp.StatusCode != c.status {
				t.Errorf("%s, %s: status %d, want %d", c.name, entry, resp.StatusCode, c.status)
				continue
			}
			if env := decodeErrorEnvelope(t, body); env.Code != c.code {
				t.Errorf("%s, %s: code %q, want %q", c.name, entry, env.Code, c.code)
			}
		}
	}
}

func TestCustomPlatformServesResults(t *testing.T) {
	t.Cleanup(cluster.PurgeCustoms)
	var runs atomic.Int32
	ts := newTestServer(t, Config{RunFunc: stubRun(&runs, 0)})

	_, reg := postSpec(t, ts.URL, serveCustomSpec)
	_, noMem := postSpec(t, ts.URL, serveNoMemSpec)

	// A registered custom qualifies requests like a preset: a mem-model
	// experiment runs on the full machine...
	resp, jbody := doGet(t, ts.URL+"/experiments/M3?platform="+reg.Name, "application/json", "")
	if resp.StatusCode != 200 {
		t.Fatalf("M3 on %s: %d %s", reg.Name, resp.StatusCode, jbody)
	}
	var doc resultJSON
	if err := json.Unmarshal([]byte(jbody), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Platform != reg.Name {
		t.Errorf("envelope platform = %q, want %q", doc.Platform, reg.Name)
	}
	// ...and is a distinct cache key from the default entry.
	doGet(t, ts.URL+"/experiments/M3", "", "")
	if runs.Load() != 2 {
		t.Errorf("custom and default M3 share a cache slot (runs=%d, want 2)", runs.Load())
	}
	doGet(t, ts.URL+"/experiments/M3?platform="+reg.Name, "", "")
	if runs.Load() != 2 {
		t.Errorf("repeat custom request re-ran (runs=%d)", runs.Load())
	}

	// The mem-less custom is rejected for M3 — by capability, with the
	// same code a preset mismatch draws.
	resp, ebody := doGet(t, ts.URL+"/experiments/M3?platform="+noMem.Name, "application/json", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("M3 on mem-less custom got %d, want 400", resp.StatusCode)
	}
	if env := decodeErrorEnvelope(t, ebody); env.Code != codeIncompatiblePlatform {
		t.Errorf("mem-less custom code = %q, want %q", env.Code, codeIncompatiblePlatform)
	}
	// But a fabric experiment accepts it.
	resp, _ = doGet(t, ts.URL+"/experiments/F1?platform="+noMem.Name, "", "")
	if resp.StatusCode != 200 {
		t.Errorf("F1 on mem-less custom got %d, want 200", resp.StatusCode)
	}
}

func TestCustomCacheNamespaceEviction(t *testing.T) {
	t.Cleanup(cluster.PurgeCustoms)
	var runs atomic.Int32
	srv := New(Config{RunFunc: stubRun(&runs, 0)})
	srv.cache.custom = lru.New[key, struct{}](1) // DefaultCustomCacheEntries, shrunk
	ts := newHTTPTestServer(t, srv)

	_, regA := postSpec(t, ts.URL, serveCustomSpec)
	_, regB := postSpec(t, ts.URL, serveNoMemSpec)

	// Fill a default and a preset entry, then churn two custom keys
	// through a one-entry custom namespace.
	doGet(t, ts.URL+"/experiments/T1", "", "")
	doGet(t, ts.URL+"/experiments/T1?platform=gige-8n", "", "")
	doGet(t, ts.URL+"/experiments/T1?platform="+regA.Name, "", "")
	doGet(t, ts.URL+"/experiments/T1?platform="+regB.Name, "", "")
	if runs.Load() != 4 {
		t.Fatalf("setup ran %d, want 4", runs.Load())
	}

	// Preset and default entries were never the churn's victims.
	doGet(t, ts.URL+"/experiments/T1", "", "")
	doGet(t, ts.URL+"/experiments/T1?platform=gige-8n", "", "")
	if runs.Load() != 4 {
		t.Errorf("custom churn evicted a preset or default entry (runs=%d, want 4)", runs.Load())
	}
	// The most recent custom survived; the older one was evicted and
	// re-runs on demand.
	doGet(t, ts.URL+"/experiments/T1?platform="+regB.Name, "", "")
	if runs.Load() != 4 {
		t.Errorf("most recent custom entry was evicted (runs=%d, want 4)", runs.Load())
	}
	doGet(t, ts.URL+"/experiments/T1?platform="+regA.Name, "", "")
	if runs.Load() != 5 {
		t.Errorf("evicted custom entry did not re-run (runs=%d, want 5)", runs.Load())
	}
}

// TestPlatformDirRestartRoundTrip is the acceptance scenario for
// customs as durable platforms: a daemon that persisted a registered
// spec and its results serves the same custom-<hash> request after a
// restart from disk alone — same ETag, zero executions.
func TestPlatformDirRestartRoundTrip(t *testing.T) {
	t.Cleanup(cluster.PurgeCustoms)
	pdir, cdir := t.TempDir(), t.TempDir()
	var runs atomic.Int32
	run := stubRun(&runs, time.Millisecond)

	srv1 := New(Config{RunFunc: run, Store: openStore(t, cdir, "fpA"), PlatformDir: pdir})
	ts1 := newHTTPTestServer(t, srv1)
	_, reg := postSpec(t, ts1.URL, serveCustomSpec)
	resp, body1 := doGet(t, ts1.URL+"/experiments/M3?platform="+reg.Name, "application/json", "")
	if resp.StatusCode != 200 {
		t.Fatalf("first get: %d %s", resp.StatusCode, body1)
	}
	etag1 := resp.Header.Get("ETag")
	if runs.Load() != 1 {
		t.Fatalf("first daemon ran %d, want 1", runs.Load())
	}

	// "Restart": the in-process registry empties (a new process knows
	// nothing), then a fresh server reloads the platform dir.
	cluster.PurgeCustoms()
	srv2 := New(Config{RunFunc: run, Store: openStore(t, cdir, "fpA"), PlatformDir: pdir})
	ts2 := newHTTPTestServer(t, srv2)

	resp, body2 := doGet(t, ts2.URL+"/experiments/M3?platform="+reg.Name, "application/json", "")
	if resp.StatusCode != 200 {
		t.Fatalf("post-restart get: %d %s", resp.StatusCode, body2)
	}
	if body2 != body1 || resp.Header.Get("ETag") != etag1 {
		t.Error("restarted daemon served different bytes or ETag for the custom key")
	}
	if runs.Load() != 1 {
		t.Errorf("restart re-ran the custom-platform experiment (runs=%d, want 1)", runs.Load())
	}
	if st := srv2.Stats(); st.Runs != 0 || st.DiskLoads != 1 {
		t.Errorf("restart stats = %+v, want Runs=0 DiskLoads=1", st)
	}
	// The reloaded custom is listed again too.
	_, lbody := doGet(t, ts2.URL+"/platforms/"+reg.Name, "application/json", "")
	if !strings.Contains(lbody, reg.Name) {
		t.Errorf("reloaded custom missing from detail: %q", lbody)
	}
}

func TestListingLinksToPlatforms(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, _ := doGet(t, ts.URL+"/experiments", "application/json", "")
	if got := resp.Header.Get("Link"); !strings.Contains(got, "</platforms>") {
		t.Errorf("listing Link header = %q, want a /platforms link", got)
	}
}

func TestPlatformListTextAndETag(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := doGet(t, ts.URL+"/platforms", "", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "gige-8n") || !strings.Contains(body, "preset") {
		t.Errorf("text platform listing: %d %q", resp.StatusCode, body[:min(len(body), 120)])
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("platform listing has no ETag")
	}
	resp, _ = doGet(t, ts.URL+"/platforms", "", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation got %d, want 304", resp.StatusCode)
	}
}
