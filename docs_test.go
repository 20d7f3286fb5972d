package repro_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/serve"
	"repro/internal/shard"
)

// mdLink matches one inline Markdown link or image — [text](target),
// with or without a quoted title after the target. The target is the
// first whitespace-free run; anything after it (a title) is consumed
// so titled links cannot silently escape the check. Reference-style
// link definitions are not used in this repo's docs.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(\s*([^)\s]+)[^)]*\)`)

// docFiles returns the Markdown set the link check covers: the
// top-level docs plus every per-package README.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md"}
	more, err := filepath.Glob(filepath.Join("internal", "*", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, more...)
}

// TestDocLinks is the docs CI gate: every relative link in the
// repository's Markdown must resolve to a file or directory that
// exists, so the architecture map in README.md cannot rot silently as
// packages move. External (scheme-qualified) links are out of scope —
// CI must not depend on third-party uptime.
func TestDocLinks(t *testing.T) {
	checked := 0
	for _, f := range docFiles(t) {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			switch {
			case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
				continue // external
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", f, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("link check matched no links — is the doc set empty?")
	}
	t.Logf("checked %d relative links", checked)
}

// famRange matches a family range like "T1–T4" or "M1–M6" (en dash)
// in the README's experiment index.
var famRange = regexp.MustCompile(`([A-Z])(\d+)–[A-Z]?(\d+)`)

// TestReadmeCoversRegistry keeps the top-level README honest about the
// experiment families, commands and examples it advertises: every
// experiment in the live core registry must be covered, either named
// literally or inside a family range, so registering a new experiment
// (an M7) fails this test until the README's index grows with it;
// every directory under cmd/ and examples/ must be linked, and so must
// every package's Example file (internal/*/example_test.go).
func TestReadmeCoversRegistry(t *testing.T) {
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)

	ranges := map[string][][2]int{}
	for _, m := range famRange.FindAllStringSubmatch(s, -1) {
		lo, _ := strconv.Atoi(m[2])
		hi, _ := strconv.Atoi(m[3])
		ranges[m[1]] = append(ranges[m[1]], [2]int{lo, hi})
	}
	for _, e := range core.All() {
		fam, num := splitExpID(e.ID)
		covered := strings.Contains(s, e.ID)
		for _, r := range ranges[fam] {
			if num >= r[0] && num <= r[1] {
				covered = true
			}
		}
		if !covered {
			t.Errorf("README.md experiment index does not cover %s", e.ID)
		}
	}

	for _, want := range []string{"charhpc", "charhpcd", "membench"} {
		if !strings.Contains(s, want) {
			t.Errorf("README.md does not mention %q", want)
		}
	}
	examples, err := filepath.Glob(filepath.Join("internal", "*", "example_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Error("found no internal/*/example_test.go — did the walk-throughs move?")
	}
	for _, f := range examples {
		if !strings.Contains(s, "]("+filepath.ToSlash(f)+")") {
			t.Errorf("README.md does not link %s", f)
		}
	}
	for _, pattern := range []string{filepath.Join("examples", "*"), filepath.Join("cmd", "*")} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			// A link into the directory: cmd/charhpc must not pass on
			// the strength of cmd/charhpcd.
			if !strings.Contains(s, "]("+filepath.ToSlash(d)+"/") {
				t.Errorf("README.md does not link %s", d)
			}
		}
	}
}

// flagDef matches one flag definition in a command's source, e.g.
// flag.Int("jobs-history", ...).
var flagDef = regexp.MustCompile(`flag\.[A-Z][A-Za-z0-9]*\("([a-z0-9-]+)"`)

// TestReadmeCoversFlags keeps the commands' flag surface and the docs
// in step: every flag a command under cmd/ defines is mentioned as
// -name in README.md or the serve README, and a retired flag, tool or
// function is mentioned nowhere but the change history.
func TestReadmeCoversFlags(t *testing.T) {
	var docs string
	for _, f := range []string{"README.md", filepath.Join("internal", "serve", "README.md")} {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs += string(body)
	}
	cmds, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("found no commands under cmd/")
	}
	for _, dir := range cmds {
		cmd := filepath.Base(dir)
		srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined := 0
		for _, src := range srcs {
			body, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDef.FindAllStringSubmatch(string(body), -1) {
				defined++
				// -j must not pass on the strength of -jobs, nor -warm on
				// -warm-platforms.
				mention := regexp.MustCompile(`(^|[^A-Za-z0-9-])-` + regexp.QuoteMeta(m[1]) + `($|[^A-Za-z0-9-])`)
				if !mention.MatchString(docs) {
					t.Errorf("%s flag -%s is documented in neither README.md nor internal/serve/README.md", cmd, m[1])
				}
			}
		}
		if defined == 0 {
			t.Errorf("found no flag definitions under cmd/%s — did the flag idiom change?", cmd)
		}
	}

	// Spelled in two halves so this file is not itself a mention. The
	// second field is a directory still allowed to name the word:
	// bench/ is frozen by BENCHMARK.json and its README says which
	// legacy benchmark tooling it replaced.
	retired := []struct{ word, exempt string }{
		{"migrate" + "-legacy", ""},
		{"bench" + "2json", "bench"},
		{"bench" + "diff", "bench"},
		{"BENCH_" + "baseline", "bench"},
		{"CheckRun" + "Request", ""},
		{"deferTo" + "Shard", ""},
		{"runID" + "Of", ""},
		{"group" + "Of", ""},
		{"CHARHPC_FP_" + "SALT", ""},
		{"results" + "-service", ""},
		{"NewT" + "CP", ""},
		{"TCP" + "Fabric", ""},
		{"cmd/" + "osu", ""},
		{"cmd/" + "hpcc", ""},
		{"cmd/" + "nas", ""},
		{"cmd/" + "stream", ""},
		{"health" + "-interval", ""},
		{"health" + "-timeout", ""},
		{"-v" + "nodes", ""},
		{"custom-cache" + "-max-bytes", ""},
		{"metrics" + "=false", ""},
		{"SetCustom" + "Quota", ""},
		{"SetCustom" + "Limit", ""},
		{"Disable" + "Metrics", ""},
		{"Trace" + "Capacity", ""},
		{"MaxJob" + "Routes", ""},
		{"Run" + "All", ""},
		{"Six" + "Step", ""},
		{"Gath" + "erv", ""},
		{"Latency" + "Distribution", ""},
		{"DESIGN" + ".md", ""},
		{"NewIn" + "Proc", ""},
		{"Faulty" + "Fabric", ""},
		{"internal/" + "transport", "bench"},
		{"Any" + "Source", ""},
		{"Any" + "Tag", ""},
		{"Global" + "Rank", ""},
		{"Reset" + "Stats", ""},
		{"child" + "Ctx", ""},
		{"MultiPair" + "Bandwidth", ""},
		{"narrow" + "Node", ""},
		{"CHARHPC_FP_" + "PIN_VCS", ""},
		{"go run ./" + "examples", ""},
		{"jobs" + "_queued", ""},
		{"Default" + "Workers", ""},
		{"`" + "-jobs`", ""},
		{"-jobs" + " N", ""},
		{"membench -" + "model", ""},
		{"-model " + "PRESET", ""},
		{"cmd/membench/" + "testdata", ""},
		{"FitNUMASplit" + "FromModel", ""},
		{"GigE" + "Cluster", ""},
		{"BigIB" + "Cluster", ""},
		{"SMP" + "Node", ""},
		{"BGP" + "Rack", ""},
		{"FatNUMA" + "Node", ""},
		{"GigE" + "Params", ""},
		{"IB" + "Params", ""},
		{"sharedMem" + "Links", ""},
		{"xeon" + "Mem", ""},
		{"bgp" + "Mem", ""},
		{"opteron" + "Mem", ""},
		{"cluster/" + "presets.go", ""},
	}
	history := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".md", ".yml":
		default:
			return nil
		}
		if history[path] {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, r := range retired {
			if r.exempt != "" && strings.HasPrefix(path, r.exempt+string(filepath.Separator)) {
				continue
			}
			if strings.Contains(string(body), r.word) {
				t.Errorf("%s still mentions the retired %s", path, r.word)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// metricRow matches the first cell of a row of the serve README's
// metric tables: one or more backquoted names joined by " / ".
var metricRow = regexp.MustCompile("(?m)^\\| (`charhpc_[^|]*)\\|")

// TestReadmeCoversMetrics keeps the serve README's two metric tables
// and a live scrape of both tiers in step: every metric charhpcd (with
// a disk store) or charhpc-router exposes is documented, and every
// documented name is exposed. A row's "`x_planned` / `_completed`"
// shorthand names x_completed.
func TestReadmeCoversMetrics(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("internal", "serve", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range metricRow.FindAllStringSubmatch(string(body), -1) {
		var first string
		for _, cell := range strings.Split(m[1], " / ") {
			name := strings.Trim(strings.TrimSpace(cell), "`")
			if first == "" {
				first = name
			} else if strings.HasPrefix(name, "_") {
				name = first[:strings.LastIndexByte(first, '_')] + name
			}
			documented[name] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no metric table rows in internal/serve/README.md")
	}

	fps := diskcache.Fingerprints{Global: core.Fingerprint(), PerID: core.Fingerprints()}
	store, err := diskcache.Open(t.TempDir(), fps, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Store: store})
	shardSrv := httptest.NewServer(srv)
	defer shardSrv.Close()
	router, err := shard.New(shard.Config{Shards: []string{shardSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	get := func(h http.Handler, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	// Labeled series exist once observed: one routed request fills the
	// request and routing families of both tiers.
	get(router, "/experiments")
	scraped := map[string]bool{}
	for _, h := range []http.Handler{srv, router} {
		for _, line := range strings.Split(get(h, "/metrics"), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
				scraped[f[2]] = true
			}
		}
	}
	for name := range scraped {
		if !documented[name] {
			t.Errorf("/metrics exposes %s, which internal/serve/README.md does not document", name)
		}
	}
	for name := range documented {
		if !scraped[name] {
			t.Errorf("internal/serve/README.md documents %s, which no /metrics scrape exposes", name)
		}
	}
}

// splitExpID splits an experiment ID like "F13" into family letter(s)
// and number, mirroring core's internal ID collation.
func splitExpID(id string) (string, int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n, _ := strconv.Atoi(id[i:])
	return id[:i], n
}
