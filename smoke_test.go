package repro_test

// The contract smokes: real charhpcd / charhpc-router / charhpc
// binaries, built from this checkout, driven over loopback. They pin
// what unit tests cannot — that the shipped processes keep the ETag
// promise across a restart, a deploy and a shard failure.
//
//	go test -count=1 -v -run '^TestSmoke' .

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// smokeBins holds the three binaries, built once per test binary.
var smokeBins struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smokeBins.dir != "" {
		os.RemoveAll(smokeBins.dir)
	}
	os.Exit(code)
}

// smokeBin returns the path of a built command. The package's tests
// run in the module root, so the build does too.
func smokeBin(t *testing.T, name string) string {
	t.Helper()
	smokeBins.once.Do(func() {
		if smokeBins.dir, smokeBins.err = os.MkdirTemp("", "charhpc-smoke-"); smokeBins.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", smokeBins.dir+string(filepath.Separator),
			"./cmd/charhpcd", "./cmd/charhpc-router", "./cmd/charhpc").CombinedOutput()
		if err != nil {
			smokeBins.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if smokeBins.err != nil {
		t.Fatal(smokeBins.err)
	}
	return filepath.Join(smokeBins.dir, name)
}

// daemon is one spawned charhpcd or charhpc-router.
type daemon struct {
	name string
	bin  string
	args func(addr string) []string
	addr string // 127.0.0.1:port
	url  string // http://addr
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
}

// startDaemon runs bin on a free loopback port (args receives the
// address) in its own process group and returns once /healthz answers
// 200. The port is free when chosen but not reserved, so a child that
// exits before it is ready — a lost bind race — is retried once on a
// new port. The process group is killed when the test ends, and the
// child's stderr reaches the test log only if the test failed.
func startDaemon(t *testing.T, name, bin string, args func(addr string) []string) *daemon {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()

		d := spawn(t, &daemon{name: name, bin: bin, args: args, addr: addr})
		if lastErr = d.waitReady(); lastErr == nil {
			return d
		}
		d.crash()
	}
	t.Fatalf("%s never became healthy: %v", name, lastErr)
	return nil
}

// restart runs a crashed daemon's command again on its own address,
// as an operator bringing it back would.
func (d *daemon) restart(t *testing.T) *daemon {
	t.Helper()
	n := spawn(t, &daemon{name: d.name, bin: d.bin, args: d.args, addr: d.addr})
	if err := n.waitReady(); err != nil {
		t.Fatalf("%s did not come back on %s: %v", d.name, d.addr, err)
	}
	return n
}

// spawn starts d's command on d.addr in its own process group.
func spawn(t *testing.T, d *daemon) *daemon {
	t.Helper()
	stderr := &bytes.Buffer{}
	d.cmd = exec.Command(d.bin, d.args(d.addr)...)
	d.cmd.Stderr = stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", d.name, err)
	}
	d.url, d.done = "http://"+d.addr, make(chan struct{})
	go func() { d.cmd.Wait(); close(d.done) }()
	t.Cleanup(func() {
		d.crash()
		if t.Failed() {
			t.Logf("%s (%s) stderr:\n%s", d.name, d.addr, stderr)
		}
	})
	return d
}

// waitReady polls /healthz until it answers 200, the process exits, or
// ten seconds pass.
func (d *daemon) waitReady() error {
	client := &http.Client{Timeout: time.Second}
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		select {
		case <-d.done:
			return fmt.Errorf("exited before ready (%v)", d.cmd.ProcessState)
		default:
		}
		if resp, err := client.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return fmt.Errorf("no 200 from /healthz within 10s")
}

// stop ends the daemon the way an operator would and waits for it, so
// the next process may open the same store.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s ignored SIGTERM for 10s", d.name)
	}
}

// crash takes the daemon away without a graceful path. A daemon that
// has already been reaped is left alone: its process-group ID may
// belong to someone else by now.
func (d *daemon) crash() {
	select {
	case <-d.done:
	default:
		syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-d.done
	}
}

var smokeClient = &http.Client{Timeout: 2 * time.Minute}

// do issues one request and returns the status, headers and body.
// header is alternating name, value.
func do(t *testing.T, method, url string, body []byte, header ...string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := smokeClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// mustGet is a GET that must answer 200; it returns the body.
func mustGet(t *testing.T, url string) string {
	t.Helper()
	code, _, body := do(t, "GET", url, nil)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	return body
}

// statusOf is a GET of which only the status matters.
func statusOf(t *testing.T, url string, header ...string) int {
	t.Helper()
	code, _, _ := do(t, "GET", url, nil, header...)
	return code
}

// etagOf fetches url in one representation and returns its non-empty
// strong ETag.
func etagOf(t *testing.T, url, accept string) string {
	t.Helper()
	code, h, body := do(t, "GET", url, nil, "Accept", accept)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	etag := h.Get("ETag")
	if etag == "" {
		t.Fatalf("GET %s carried no ETag", url)
	}
	return etag
}

// counter reads one name=value token of a /healthz line; a missing
// name reads as "".
func counter(healthz, name string) string {
	for _, tok := range strings.Fields(healthz) {
		if v, ok := strings.CutPrefix(tok, name+"="); ok {
			return v
		}
	}
	return ""
}

// wantCounters fails the test unless every name=value pair is on the
// /healthz line.
func wantCounters(t *testing.T, what, healthz string, pairs ...string) {
	t.Helper()
	for _, p := range pairs {
		name, want, _ := strings.Cut(p, "=")
		if got := counter(healthz, name); got != want {
			t.Fatalf("%s: %s=%s, want %s: %s", what, name, got, want, healthz)
		}
	}
}

// metric returns the value of one series (name with its labels) on
// base/metrics.
func metric(t *testing.T, base, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(mustGet(t, base+"/metrics"), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("%s/metrics has no series %s", base, series)
	return 0
}

var (
	jobField    = regexp.MustCompile(`"job":"([^"]+)"`)
	customField = regexp.MustCompile(`"name":"(custom-[0-9a-f]+)"`)
	// The terminal event's etag is the text representation's: a
	// JSON-escaped quoted SHA-256.
	etagField = regexp.MustCompile(`"etag":"\\"([0-9a-f]+)\\""`)
)

// submitAndDrain POSTs one async run and reads its event stream to the
// end (the server closes it after the terminal event).
func submitAndDrain(t *testing.T, base, query string) (events string) {
	t.Helper()
	code, _, body := do(t, "POST", base+"/runs?"+query, nil)
	m := jobField.FindStringSubmatch(body)
	if code/100 != 2 || m == nil {
		t.Fatalf("POST /runs?%s returned %d and no job id: %s", query, code, body)
	}
	return mustGet(t, base+"/runs/"+m[1]+"/events")
}

// hasEvent reports whether an SSE stream holds a frame of that type.
func hasEvent(events, typ string) bool {
	return strings.Contains("\n"+events, "\nevent: "+typ+"\n")
}

// runCLI runs the charhpc client and returns its standard output.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(smokeBin(t, "charhpc"), args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("charhpc %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// wantCachedReplay asserts the CLI's header line for id says the
// result came from the shared store.
func wantCachedReplay(t *testing.T, id, out string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "### "+id) && strings.Contains(line, "cached") {
			return
		}
	}
	t.Fatalf("charhpc did not replay %s from the shared cache:\n%s", id, out)
}

// TestSmokeRestartAndDeploy is the results service's contract: results
// fill once, persist, replay byte-identically across a restart, and a
// deploy that changes one experiment invalidates that experiment only.
func TestSmokeRestartAndDeploy(t *testing.T) {
	cacheDir, platformDir := t.TempDir(), t.TempDir()
	charhpcd := func(bin string) *daemon {
		return startDaemon(t, "charhpcd", bin, func(addr string) []string {
			return []string{"-addr", addr, "-warm=false", "-cache-dir", cacheDir, "-platform-dir", platformDir}
		})
	}
	const asJSON = "application/json"

	// First daemon, cold store: the default-platform entry and a
	// platform-qualified one fill and persist as distinct keys with
	// distinct strong ETags.
	d := charhpcd(smokeBin(t, "charhpcd"))
	etag1 := etagOf(t, d.url+"/experiments/T1?scale=quick", asJSON)
	petag1 := etagOf(t, d.url+"/experiments/T1?scale=quick&platform=gige-8n", asJSON)
	wantCounters(t, "first daemon", mustGet(t, d.url+"/healthz"), "runs=2")
	if etag1 == petag1 {
		t.Fatalf("platform-qualified entry shares the default ETag %s", etag1)
	}
	// Unknown and incompatible platforms are rejected up front.
	if code := statusOf(t, d.url+"/experiments/T1?platform=cray-1"); code != 400 {
		t.Fatalf("unknown platform returned %d, want 400", code)
	}
	if code := statusOf(t, d.url+"/experiments/F1?platform=smp-1n"); code != 400 {
		t.Fatalf("incompatible platform returned %d, want 400", code)
	}

	// Prometheus exposition: a fresh ?platform= request advances the
	// run-tier counter; repeating it is a memory hit.
	const runTier, memTier = `charhpc_cache_requests_total{tier="run"}`, `charhpc_cache_requests_total{tier="mem"}`
	runsBefore, memBefore := metric(t, d.url, runTier), metric(t, d.url, memTier)
	mustGet(t, d.url+"/experiments/T4?platform=ib-8n")
	if got := metric(t, d.url, runTier); got != runsBefore+1 {
		t.Fatalf("run counter did not advance: %v -> %v", runsBefore, got)
	}
	mustGet(t, d.url+"/experiments/T4?platform=ib-8n")
	if got := metric(t, d.url, memTier); got != memBefore+1 {
		t.Fatalf("repeat request was not a memory hit: %v -> %v", memBefore, got)
	}
	// The run left a span tree behind.
	if traces := mustGet(t, d.url+"/debug/traces?n=1"); !strings.Contains(traces, `"name":"T4"`) {
		t.Fatalf("no T4 trace on /debug/traces: %s", traces)
	}

	// Async jobs: submit an M-family run, drain its SSE stream, and
	// hand the terminal ETag off to the synchronous GET.
	events := submitAndDrain(t, d.url, "id=M3")
	for _, typ := range []string{"phase", "section", "done"} {
		if !hasEvent(events, typ) {
			t.Fatalf("job stream has no %s event:\n%s", typ, events)
		}
	}
	// The terminal event is the stream's last frame.
	var terminal string
	for _, line := range strings.Split(events, "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			terminal = data
		}
	}
	m := etagField.FindStringSubmatch(terminal)
	if m == nil {
		t.Fatalf("terminal event carries no etag: %s", terminal)
	}
	if code := statusOf(t, d.url+"/experiments/M3?scale=quick", "If-None-Match", `"`+m[1]+`"`); code != 304 {
		t.Fatalf("sync GET with the job's ETag returned %d, want 304", code)
	}
	if got := metric(t, d.url, `charhpc_jobs_total{state="done"}`); got != 1 {
		t.Fatalf(`charhpc_jobs_total{state="done"} = %v, want 1`, got)
	}

	// User-defined platforms: the example spec registers under its
	// content-hash name, re-POSTs idempotently, and serves a mem-model
	// experiment both blocking and async; a made-up custom name is
	// rejected with the JSON error envelope.
	spec, err := os.ReadFile(filepath.Join("examples", "platforms", "edr-16n.json"))
	if err != nil {
		t.Fatal(err)
	}
	code, _, body := do(t, "POST", d.url+"/platforms", spec, "Content-Type", asJSON)
	cm := customField.FindStringSubmatch(body)
	if code != 201 || cm == nil {
		t.Fatalf("POST /platforms returned %d and no custom name: %s", code, body)
	}
	custom := cm[1]
	if code, _, body := do(t, "POST", d.url+"/platforms", spec, "Content-Type", asJSON); code != 200 {
		t.Fatalf("re-POST of the same spec returned %d, want 200: %s", code, body)
	}
	cetag1 := etagOf(t, d.url+"/experiments/M3?platform="+custom, asJSON)
	if events := submitAndDrain(t, d.url, "id=M3&platform="+custom); !hasEvent(events, "done") {
		t.Fatalf("custom-platform job stream has no done terminal:\n%s", events)
	}
	if _, _, envelope := do(t, "GET", d.url+"/experiments/T1?platform=custom-000000000000", nil, "Accept", asJSON); !strings.Contains(envelope, `"code":"unknown_platform"`) {
		t.Fatalf("unknown custom name did not produce the envelope: %s", envelope)
	}
	// A spec asking for 6.4e9 ranks is refused at the door, and the
	// daemon that refused it is still there.
	hostile := bytes.Replace(spec, []byte(`"nodes": 16`), []byte(`"nodes": 400000000`), 1)
	if bytes.Equal(hostile, spec) {
		t.Fatal("the hostile edit of edr-16n.json did not apply")
	}
	if code, _, body := do(t, "POST", d.url+"/platforms", hostile, "Content-Type", asJSON, "Accept", asJSON); code != 400 || !strings.Contains(body, `"code":"invalid_platform"`) {
		t.Fatalf("hostile spec returned %d, want 400 invalid_platform: %s", code, body)
	}
	mustGet(t, d.url+"/healthz")
	d.stop(t)

	// Second daemon over the same store: both entries are served from
	// disk — no run, identical strong ETags, for the platform-qualified
	// key exactly as for the default one.
	d = charhpcd(smokeBin(t, "charhpcd"))
	etag2 := etagOf(t, d.url+"/experiments/T1?scale=quick", asJSON)
	petag2 := etagOf(t, d.url+"/experiments/T1?scale=quick&platform=gige-8n", asJSON)
	h := mustGet(t, d.url+"/healthz")
	wantCounters(t, "restarted daemon", h, "runs=0", "disk_loads=2")
	if etag1 != etag2 {
		t.Fatalf("ETag changed across restart: %s vs %s", etag1, etag2)
	}
	if petag1 != petag2 {
		t.Fatalf("platform ETag changed across restart: %s vs %s", petag1, petag2)
	}
	// The custom platform and its cached result both survive:
	// -platform-dir re-registers the spec at startup and the result
	// replays from disk.
	wantCounters(t, "restart did not reload the platform dir", h, "custom_platforms=1")
	if cetag2 := etagOf(t, d.url+"/experiments/M3?platform="+custom, asJSON); cetag1 != cetag2 {
		t.Fatalf("custom ETag changed across restart: %s vs %s", cetag1, cetag2)
	}
	wantCounters(t, "custom replay", mustGet(t, d.url+"/healthz"), "runs=0")
	// The survivors of the deploy below (each GET is a disk load here).
	tetag2 := etagOf(t, d.url+"/experiments/T4?scale=quick&platform=ib-8n", asJSON)
	metag2 := etagOf(t, d.url+"/experiments/M3?scale=quick", asJSON)

	// The CLI shares the store: a cached run replays, and so does a
	// platform-qualified one.
	wantCachedReplay(t, "T1", runCLI(t, "-exp", "T1", "-cache-dir", cacheDir))
	wantCachedReplay(t, "T1", runCLI(t, "-platform", "gige-8n", "-cache-dir", cacheDir, "T1"))
	d.stop(t)

	// A real deploy: a charhpcd built from a copy of the tree in which
	// one experiment's output digest changed (T1's default line in
	// internal/core/digests.txt, as a change to T1's output rewrites
	// it), started over the same store. The copy is not a VCS checkout,
	// so this also pins that nothing VCS-derived reaches a modeled
	// experiment's fingerprint. Open must purge exactly T1's two keys;
	// every other key replays from disk under its original ETag.
	d = charhpcd(buildDeploy(t))
	wantCounters(t, "deploy daemon at startup", mustGet(t, d.url+"/healthz"), "stale_purged=2")
	if got := metric(t, d.url, `charhpc_cache_invalidated_total{reason="experiment"}`); got != 2 {
		t.Fatalf(`charhpc_cache_invalidated_total{reason="experiment"} = %v, want 2`, got)
	}
	mustGet(t, d.url+"/experiments/T1?scale=quick")
	mustGet(t, d.url+"/experiments/T1?scale=quick&platform=gige-8n")
	tetag3 := etagOf(t, d.url+"/experiments/T4?scale=quick&platform=ib-8n", asJSON)
	metag3 := etagOf(t, d.url+"/experiments/M3?scale=quick", asJSON)
	wantCounters(t, "deploy daemon after requests", mustGet(t, d.url+"/healthz"), "runs=2", "disk_loads=2")
	if tetag3 != tetag2 {
		t.Fatalf("T4 ETag changed across a T1-only deploy: %s vs %s", tetag2, tetag3)
	}
	if metag3 != metag2 {
		t.Fatalf("M3 ETag changed across a T1-only deploy: %s vs %s", metag2, metag3)
	}
}

// buildDeploy builds charhpcd from a copy of go.mod, cmd/charhpcd and
// the non-test sources under internal/ — Go files and the embedded
// digests.txt and preset specs — in which T1's default digest line is
// edited, and returns the binary's path.
func buildDeploy(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	copyFile := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("go.mod")
	for _, root := range []string{filepath.Join("cmd", "charhpcd"), "internal"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if e.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") ||
				e.Name() == "digests.txt" || strings.HasSuffix(path, ".json") {
				copyFile(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	table := filepath.Join(dir, "internal", "core", "digests.txt")
	digests, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(digests, []byte("T1 default "))
	if i < 0 {
		t.Fatal("internal/core/digests.txt has no T1 default line")
	}
	digests[i+len("T1 default ")] ^= 1 // one character of the digest
	if err := os.WriteFile(table, digests, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "charhpcd-deploy")
	if out, err := exec.Command("go", "build", "-C", dir, "-o", bin, "./cmd/charhpcd").CombinedOutput(); err != nil {
		t.Fatalf("go build of the deploy copy: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeRouterFailover is the sharded topology's contract: two real
// shards behind one router. Routed bytes are the owning shard's,
// killing that shard fails over transparently (and the failover
// counter says so), the aggregated /healthz reports the degraded
// pool, and the owner restarted on its address takes its keys back.
func TestSmokeRouterFailover(t *testing.T) {
	// The text representation; every representation of a modeled
	// experiment is the same bytes across independent runs, so two
	// shards' fresh runs of one key share its strong ETag.
	const asText = "text/plain"
	shard := func(name string) *daemon {
		dir := t.TempDir()
		return startDaemon(t, name, smokeBin(t, "charhpcd"), func(addr string) []string {
			return []string{"-addr", addr, "-warm=false", "-cache-dir", dir}
		})
	}
	s1, s2 := shard("shard1"), shard("shard2")
	router := startDaemon(t, "router", smokeBin(t, "charhpc-router"), func(addr string) []string {
		return []string{"-addr", addr, "-warm=false", "-shards", s1.addr + "," + s2.addr}
	})

	// Byte identity: the routed response carries the same strong ETag
	// as a direct request to the shard that ran it. Routing is sticky,
	// so exactly one shard ran it: the key's owner. (T1's text is the
	// same on every shard, so the ETags alone could not tell which; the
	// direct probes then fill the other shard.)
	routed := etagOf(t, router.url+"/experiments/T1?scale=quick", asText)
	owner, other := s1, s2
	if counter(mustGet(t, s1.url+"/healthz"), "runs") != "1" {
		owner, other = s2, s1
	}
	wantCounters(t, "owning shard", mustGet(t, owner.url+"/healthz"), "runs=1")
	wantCounters(t, "other shard", mustGet(t, other.url+"/healthz"), "runs=0")
	if direct := etagOf(t, owner.url+"/experiments/T1?scale=quick", asText); routed != direct {
		t.Fatalf("routed ETag %s is not its shard's (%s)", routed, direct)
	}
	etagOf(t, other.url+"/experiments/T1?scale=quick", asText)
	wantCounters(t, "router healthy", mustGet(t, router.url+"/healthz"), "shards_up=2", "shards_total=2")

	// The CLI works unchanged against the router address.
	if out := runCLI(t, "-submit", router.addr, "-follow=false", "T4"); !strings.Contains(out, "job ") {
		t.Fatalf("charhpc -submit via the router printed no job: %s", out)
	}

	// Kill the shard that owns T1 and re-request: the router dials the
	// dead owner, fails over to the survivor, and serves the same bytes.
	owner.crash()
	if after := etagOf(t, router.url+"/experiments/T1?scale=quick", asText); after != routed {
		t.Fatalf("failover ETag %s != pre-kill %s", after, routed)
	}
	wantCounters(t, "router degraded", mustGet(t, router.url+"/healthz"), "shards_up=1", "shards_total=2")
	failovers := metric(t, router.url, "charhpc_router_failovers_total")
	if failovers < 1 {
		t.Fatalf("charhpc_router_failovers_total = %v, want >= 1", failovers)
	}

	// Restart the owner on its address and store. The router's /healthz
	// probes it back up, and T1 lands on it again: a disk load there,
	// no failover, the same bytes.
	owner = owner.restart(t)
	wantCounters(t, "router recovered", mustGet(t, router.url+"/healthz"), "shards_up=2", "shards_total=2")
	if back := etagOf(t, router.url+"/experiments/T1?scale=quick", asText); back != routed {
		t.Fatalf("ETag after recovery %s != pre-kill %s", back, routed)
	}
	wantCounters(t, "restarted owner", mustGet(t, owner.url+"/healthz"), "runs=0", "disk_loads=1")
	if got := metric(t, router.url, "charhpc_router_failovers_total"); got != failovers {
		t.Fatalf("charhpc_router_failovers_total moved %v -> %v on a recovered pool", failovers, got)
	}
}

// TestSmokeWarmFlagRemoved: both daemons still accept -warm=false,
// which old command lines pass (the two smokes above start them so),
// but -warm and -warm=true exit 2 with one line on stderr before they
// listen.
func TestSmokeWarmFlagRemoved(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	for _, c := range []struct {
		bin  string
		args []string
	}{
		{"charhpcd", []string{"-addr", addr, "-warm=true"}},
		{"charhpcd", []string{"-addr", addr, "-warm"}},
		{"charhpc-router", []string{"-addr", addr, "-warm=true", "-shards", "127.0.0.1:1"}},
		{"charhpc-router", []string{"-addr", addr, "-warm", "-shards", "127.0.0.1:1"}},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(smokeBin(t, c.bin), c.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("%s %v: exit %d (%v), want 2", c.bin, c.args, code, err)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-warm was removed") {
			t.Errorf("%s %v: stderr %q, want one line saying -warm was removed", c.bin, c.args, msg)
		}
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("%s %v: something listens on %s", c.bin, c.args, addr)
		}
	}
}
