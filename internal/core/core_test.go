package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment the README's experiment families promise must be
	// registered.
	want := []string{
		"T1", "T2", "T3", "T4",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7",
		"F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16",
		"M1", "M2", "M3", "M4", "M5", "M6",
	}
	for _, id := range want {
		e, ok := Get(id)
		if !ok {
			t.Errorf("experiment %s missing from registry", id)
			continue
		}
		if e.ID != id || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s malformed: %+v", id, e)
		}
		if e.Kind != "table" && e.Kind != "figure" {
			t.Errorf("experiment %s has kind %q", id, e.Kind)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllOrdering(t *testing.T) {
	all := All()
	// Tables first.
	sawFigure := false
	for _, e := range all {
		if e.Kind == "figure" {
			sawFigure = true
		} else if sawFigure {
			t.Fatalf("table %s after a figure", e.ID)
		}
	}
	// F2 before F10; families collate alphabetically within a kind.
	pos := map[string]int{}
	for i, e := range all {
		pos[e.ID] = i
	}
	if pos["F2"] > pos["F10"] {
		t.Error("numeric ID ordering broken: F2 after F10")
	}
	if pos["F16"] > pos["M1"] {
		t.Error("mixed-family ordering broken: F16 after M1")
	}
	if pos["M3"] > pos["M4"] || pos["M4"] > pos["M5"] {
		t.Error("M-family ordering broken: M3/M4/M5 out of order")
	}
	// M6 is a figure and so sorts with the figure group, after the
	// F-family figures.
	if pos["F16"] > pos["M6"] {
		t.Error("figure-group ordering broken: F16 after M6")
	}
	// M3/M4 are tables and so sort with the table group, before every
	// figure, and alphabetically before the T family.
	if pos["M4"] > pos["T1"] {
		t.Error("table-group ordering broken: M4 after T1")
	}
	if pos["M3"] > pos["F1"] {
		t.Error("kind ordering broken: table M3 after figure F1")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("Z9"); ok {
		t.Error("unknown experiment found")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("Scale strings wrong")
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"", Quick, true},
		{"quick", Quick, true},
		{"full", Full, true},
		{"Full", Quick, false},
		{"huge", Quick, false},
	} {
		if got, ok := ParseScale(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// cells holds one Quick run per (experiment, platform) cell, so each
// cell of the registry matrix runs once per test binary however many
// tests read it. A determinism test must keep one fresh side in every
// comparison: a memoised cell compared with itself checks nothing.
var cells sync.Map // [2]string{id, platform} -> func() Result

// cell returns the memoised Quick result of experiment id on platform
// ("" is the default set), run through Run, the production path.
func cell(t *testing.T, id, platform string) Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	f, _ := cells.LoadOrStore([2]string{id, platform}, sync.OnceValue(func() Result {
		return Run(e, Request{Scale: Quick, Platform: platform})
	}))
	return f.(func() Result)()
}

// The experiment smoke tests read each experiment's Quick cell and make
// shape assertions on the rendered output — these are the "who wins"
// checks.

func runExp(t *testing.T, id string) string {
	t.Helper()
	r := cell(t, id, "")
	if r.Err != nil {
		t.Fatalf("experiment %s failed: %v", id, r.Err)
	}
	out := r.Rec.Text()
	if len(out) == 0 {
		t.Fatalf("experiment %s produced no output", id)
	}
	return out
}

func TestT1PlatformTable(t *testing.T) {
	out := runExp(t, "T1")
	for _, want := range []string{"gige-8n", "ib-8n", "intra-socket", "inter-node"} {
		if !strings.Contains(out, want) {
			t.Errorf("T1 missing %q", want)
		}
	}
}

func TestF1LatencyShape(t *testing.T) {
	out := runExp(t, "F1")
	if !strings.Contains(out, "ib-8n/intra-socket") || !strings.Contains(out, "gige-8n/inter-node") {
		t.Errorf("F1 missing series: %s", out)
	}
}

// figPoint is one "series, x, y" row of a rendered figure.
type figPoint struct {
	series string
	x, y   float64
}

// figPoints parses every data row of a rendered figure.
func figPoints(out string) []figPoint {
	var pts []figPoint
	for _, line := range strings.Split(out, "\n") {
		parts := strings.Split(line, ",")
		if len(parts) != 3 || strings.HasPrefix(line, "#") {
			continue
		}
		x, err1 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		y, err2 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err1 == nil && err2 == nil {
			pts = append(pts, figPoint{strings.TrimSpace(parts[0]), x, y})
		}
	}
	return pts
}

// TestF4MultiPair: every pair count's aggregate crosses one NIC, so no
// point exceeds the inter-node 1/G.
func TestF4MultiPair(t *testing.T) {
	out := runExp(t, "F4")
	if !strings.Contains(out, "msg=65536B") {
		t.Errorf("F4 missing series: %s", out)
	}
	nic := 1 / cluster.Preset("ib-8n").Links.InterNode.GB / 1e6
	pts := figPoints(out)
	if len(pts) != 3 {
		t.Fatalf("F4: want 3 points, got %d in:\n%s", len(pts), out)
	}
	for _, p := range pts {
		if p.y > nic*(1+1e-9) {
			t.Errorf("F4 %s at %g pairs: %g MB/s above the NIC's 1/G of %g", p.series, p.x, p.y, nic)
		}
	}
}

func TestF13FitQuality(t *testing.T) {
	out := runExp(t, "F13")
	if !strings.Contains(out, "L+2o") || !strings.Contains(out, "G (ns/byte)") {
		t.Errorf("F13 missing parameters: %s", out)
	}
}

func TestT2StreamTable(t *testing.T) {
	out := runExp(t, "T2")
	for _, k := range []string{"Copy", "Scale", "Add", "Triad"} {
		if !strings.Contains(out, k) {
			t.Errorf("T2 missing kernel %s", k)
		}
	}
}

func TestF5Collectives(t *testing.T) {
	out := runExp(t, "F5")
	for _, series := range []string{"barrier", "bcast-8B", "allreduce-65536B", "alltoall-1KiB"} {
		if !strings.Contains(out, series) {
			t.Errorf("F5 missing series %s", series)
		}
	}
}

// TestF5OneRankPerNode: F5's caption says one rank per node, so an
// 8-node platform gets no 16-rank point.
func TestF5OneRankPerNode(t *testing.T) {
	r := cell(t, "F5", "ib-8n")
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	pts := figPoints(r.Rec.Text())
	if len(pts) == 0 {
		t.Fatalf("F5 on ib-8n has no points:\n%s", r.Rec.Text())
	}
	for _, p := range pts {
		if p.x > 8 {
			t.Errorf("F5 on ib-8n: %s has a %g-rank point on 8 nodes", p.series, p.x)
		}
	}
}

func TestF8HPLScaling(t *testing.T) {
	out := runExp(t, "F8")
	if !strings.Contains(out, "ib-8n") || !strings.Contains(out, "gige-8n") {
		t.Errorf("F8 missing platforms: %s", out)
	}
}

func TestT3Summary(t *testing.T) {
	out := runExp(t, "T3")
	for _, k := range []string{"HPL", "RandomAccess", "PTRANS", "FFT", "DGEMM", "RandomRing"} {
		if !strings.Contains(out, k) {
			t.Errorf("T3 missing kernel %s", k)
		}
	}
}

func TestT4Comparison(t *testing.T) {
	out := runExp(t, "T4")
	// IB must win the latency-sensitive rows.
	if !strings.Contains(out, "8B latency") {
		t.Fatalf("T4 missing latency row: %s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "8B latency") && !strings.HasSuffix(strings.TrimSpace(line), "ib") {
			t.Errorf("T4: GigE won small-message latency: %q", line)
		}
		if strings.Contains(line, "GUPS") && !strings.HasSuffix(strings.TrimSpace(line), "ib") {
			t.Errorf("T4: GigE won GUPS: %q", line)
		}
	}
}

func TestF12EagerRendezvousShape(t *testing.T) {
	out := runExp(t, "F12")
	for _, series := range []string{"always-eager", "always-rendezvous", "default-8KiB"} {
		if !strings.Contains(out, series) {
			t.Errorf("F12 missing series %s", series)
		}
	}
}

func TestF14PlacementSeries(t *testing.T) {
	out := runExp(t, "F14")
	if !strings.Contains(out, "ib-8n/block") || !strings.Contains(out, "ib-8n/cyclic") {
		t.Errorf("F14 missing placement series: %s", out)
	}
}

func TestF15ApplicationKernels(t *testing.T) {
	out := runExp(t, "F15")
	for _, k := range []string{"EP", "IS", "CG"} {
		if !strings.Contains(out, k) {
			t.Errorf("F15 missing kernel %s", k)
		}
	}
}

// TestRegistrySmoke reads every registered experiment's Quick cell —
// whichever exp_*.go it lives in — and asserts it succeeded with
// non-empty output, so a broken experiment wiring fails even without a
// dedicated shape test.
func TestRegistrySmoke(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) { runExp(t, e.ID) })
	}
}

// TestSplitIDOrdering is the table test for the ID collation,
// including malformed IDs: a digit-less or junk-suffixed ID must sort
// deterministically (before numbered siblings of its prefix) instead
// of silently parsing as 0 and colliding with a real "F0".
func TestSplitIDOrdering(t *testing.T) {
	cases := []struct {
		id         string
		wantPrefix string
		wantNum    int
	}{
		{"F13", "F", 13},
		{"T1", "T", 1},
		{"M6", "M", 6},
		{"F", "F", -1},    // no digits at all
		{"F13x", "F", -1}, // trailing junk: not a clean number
		{"FX", "FX", -1},  // all letters
		{"7", "", 7},      // no prefix
		{"F0", "F", 0},    // zero is a real number, not a parse failure
		{"", "", -1},      // empty
	}
	for _, c := range cases {
		p, n := splitID(c.id)
		if p != c.wantPrefix || n != c.wantNum {
			t.Errorf("splitID(%q) = (%q, %d), want (%q, %d)", c.id, p, n, c.wantPrefix, c.wantNum)
		}
	}

	// Ordering across mixed well-formed and malformed IDs: malformed
	// sorts before numbered IDs of the same prefix (so "F" < "F0"),
	// ties fall back to the string compare, and the classic numeric
	// collation still holds.
	ordered := []string{"F", "F13x", "F0", "F2", "F10", "F13", "FX", "M1", "T1", "T10"}
	for i := 0; i+1 < len(ordered); i++ {
		if !idLess(ordered[i], ordered[i+1]) {
			t.Errorf("idLess(%q, %q) = false, want true", ordered[i], ordered[i+1])
		}
		if idLess(ordered[i+1], ordered[i]) {
			t.Errorf("idLess(%q, %q) = true, want false", ordered[i+1], ordered[i])
		}
	}
}

// TestCheckPlatform covers the request-validation contract: default
// always passes, unknown names and incompatible presets fail with
// messages naming the valid set, and NoPlatform experiments reject
// every explicit platform.
func TestCheckPlatform(t *testing.T) {
	t1, _ := Get("T1") // any preset
	f1, _ := Get("F1") // needs multi-node
	m5, _ := Get("M5") // needs NUMA
	t2, _ := Get("T2") // host-only

	for _, e := range []Experiment{t1, f1, m5, t2} {
		if err := e.CheckPlatform(""); err != nil {
			t.Errorf("%s: default platform rejected: %v", e.ID, err)
		}
	}
	if err := t1.CheckPlatform("no-such"); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := t1.CheckPlatform("bgp-64n"); err != nil {
		t.Errorf("T1 on bgp-64n rejected: %v", err)
	}
	if err := f1.CheckPlatform("smp-1n"); err == nil {
		t.Error("F1 accepted a single-node platform")
	}
	if err := f1.CheckPlatform("gige-8n"); err != nil {
		t.Errorf("F1 on gige-8n rejected: %v", err)
	}
	if err := m5.CheckPlatform("ib-8n"); err == nil {
		t.Error("M5 accepted a non-NUMA platform")
	}
	if err := m5.CheckPlatform("fat-1n"); err != nil {
		t.Errorf("M5 on fat-1n rejected: %v", err)
	}
	if err := t2.CheckPlatform("ib-8n"); err == nil {
		t.Error("host-only T2 accepted an explicit platform")
	}

	if got := t2.Platforms(); got != nil {
		t.Errorf("T2.Platforms() = %v, want nil", got)
	}
	if got := m5.Platforms(); len(got) != 2 {
		t.Errorf("M5.Platforms() = %v, want the two NUMA presets", got)
	}
	if got := t1.Platforms(); len(got) != 6 {
		t.Errorf("T1.Platforms() = %v, want every preset", got)
	}
}

func TestM1LadderSeries(t *testing.T) {
	out := runExp(t, "M1")
	for _, series := range []string{"measured/host", "model/smp-1n", "model/bgp-64n"} {
		if !strings.Contains(out, series) {
			t.Errorf("M1 missing series %s", series)
		}
	}
}

func TestM2TLBSeries(t *testing.T) {
	out := runExp(t, "M2")
	for _, series := range []string{
		"measured/host-4KiB-pages",
		"model/smp-1n/paged", "model/smp-1n/bigmem",
		"model/bgp-64n/paged", "model/bgp-64n/bigmem",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("M2 missing series %s", series)
		}
	}
}

func TestM3BigMemoryWins(t *testing.T) {
	out := runExp(t, "M3")
	for _, want := range []string{"paged", "bigmem", "TLB reach", "first-touch"} {
		if !strings.Contains(out, want) {
			t.Errorf("M3 missing %q", want)
		}
	}
	// Past paged TLB reach, the paged rows must show a slowdown > 1
	// while the bigmem rows stay at 1. Columns: platform mode page
	// reach ws latency slowdown first-touch.
	pagedRows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 8 || f[0] != "bgp-64n" {
			continue
		}
		slowdown, err := strconv.ParseFloat(f[6], 64)
		if err != nil {
			t.Errorf("M3 unparsable slowdown in %q", line)
			continue
		}
		switch f[1] {
		case "paged":
			pagedRows++
			// Every tabulated working set exceeds the 256 KiB paged
			// reach of the BG/P node, so the walk penalty must show.
			if slowdown <= 1 {
				t.Errorf("M3 bgp-64n paged ws=%s slowdown = %v, want > 1", f[4], slowdown)
			}
		case "bigmem":
			if slowdown != 1 {
				t.Errorf("M3 bgp-64n bigmem ws=%s slowdown = %v, want 1", f[4], slowdown)
			}
		}
	}
	if pagedRows != 3 {
		t.Errorf("M3 has %d bgp-64n paged rows, want 3: %s", pagedRows, out)
	}
}

// TestM5PlacementTable asserts the NUMA table covers every placement
// policy on every NUMA platform, that remote placement shows a real
// slowdown at memory-resident working sets, and that the fitted
// local/remote split lands near the configured truth.
func TestM5PlacementTable(t *testing.T) {
	out := runExp(t, "M5")
	for _, want := range []string{
		"fat-1n", "bgp-64n", "first-touch", "interleave", "remote",
		"NUMA split fitted vs truth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("M5 missing %q", want)
		}
	}
	// Ladder rows: platform mode ws placement latency slowdown.
	remoteRows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || f[0] != "fat-1n" || f[3] != "remote" {
			continue
		}
		remoteRows++
		slowdown, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			t.Errorf("M5 unparsable slowdown in %q", line)
			continue
		}
		if f[2] == "1GiB" && slowdown <= 1.2 {
			t.Errorf("M5 fat-1n remote %s/%s slowdown = %v, want > 1.2", f[1], f[2], slowdown)
		}
	}
	if remoteRows != 6 { // 2 modes x 3 working sets
		t.Errorf("M5 has %d fat-1n remote rows, want 6: %s", remoteRows, out)
	}
	// Fit rows: platform tl fl tr fr tratio fratio R2 — the recovered
	// ratio must be within 10% of truth on every platform.
	fitRows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 8 || (f[0] != "fat-1n" && f[0] != "bgp-64n") {
			continue
		}
		fitRows++
		trueRatio, err1 := strconv.ParseFloat(f[5], 64)
		fitRatio, err2 := strconv.ParseFloat(f[6], 64)
		if err1 != nil || err2 != nil {
			t.Errorf("M5 unparsable fit row %q", line)
			continue
		}
		if e := (fitRatio - trueRatio) / trueRatio; e > 0.1 || e < -0.1 {
			t.Errorf("M5 %s fitted ratio %v vs truth %v (>10%% off)", f[0], fitRatio, trueRatio)
		}
	}
	if fitRows != 2 {
		t.Errorf("M5 has %d fit rows, want 2: %s", fitRows, out)
	}
}

// TestM6SlowdownShape asserts the slowdown figure has the interleave
// and remote series for every NUMA platform and that remote slowdown
// starts at ~1 for cache-resident sets and ends above interleave's.
func TestM6SlowdownShape(t *testing.T) {
	out := runExp(t, "M6")
	for _, series := range []string{
		"fat-1n/paged/interleave", "fat-1n/paged/remote",
		"bgp-64n/bigmem/interleave", "bgp-64n/bigmem/remote",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("M6 missing series %s", series)
		}
	}
	last := map[string]float64{}
	first := map[string]float64{}
	for _, p := range figPoints(out) {
		if _, ok := first[p.series]; !ok {
			first[p.series] = p.y
		}
		last[p.series] = p.y
	}
	for _, series := range []string{"fat-1n/paged/interleave", "fat-1n/paged/remote"} {
		if f := first[series]; f < 0.999 || f > 1.001 {
			t.Errorf("M6 %s starts at %v, want ~1 (cache-resident)", series, f)
		}
	}
	if !(last["fat-1n/paged/remote"] > last["fat-1n/paged/interleave"]) {
		t.Errorf("M6 remote tail %v not above interleave tail %v",
			last["fat-1n/paged/remote"], last["fat-1n/paged/interleave"])
	}
}

// TestM4FitRecovery is the acceptance gate for the hierarchy fit: on
// every modeled platform the fit must recover each configured level's
// capacity and latency within 25%.
func TestM4FitRecovery(t *testing.T) {
	out := runExp(t, "M4")
	lines := strings.Split(out, "\n")
	levelRows := 0
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) < 9 || (f[1] != "L1" && f[1] != "L2" && f[1] != "L3") {
			continue
		}
		levelRows++
		capErr, err1 := strconv.ParseFloat(f[4], 64)
		latErr, err2 := strconv.ParseFloat(f[7], 64)
		if err1 != nil || err2 != nil {
			t.Errorf("M4 unparsable row %q", line)
			continue
		}
		if capErr > 25 {
			t.Errorf("M4 %s/%s capacity error %.1f%% > 25%%", f[0], f[1], capErr)
		}
		if latErr > 25 {
			t.Errorf("M4 %s/%s latency error %.1f%% > 25%%", f[0], f[1], latErr)
		}
	}
	if levelRows < 4 {
		t.Errorf("M4 has %d level rows, want >= 4: %s", levelRows, out)
	}
}
