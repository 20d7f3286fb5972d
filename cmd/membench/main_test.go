package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
)

// membench is the binary under test, built once from this directory.
var membench string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "membench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	membench = filepath.Join(dir, "membench")
	out, err := exec.Command("go", "build", "-o", membench, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin executes the built binary and returns its two streams and exit
// code.
func runBin(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(membench, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("membench %v: %v", args, err)
	}
	return o.String(), e.String(), cmd.ProcessState.ExitCode()
}

// TestParseSize covers the size grammar, including the products that
// would wrap an int: those are rejected, not truncated.
func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"4096", 4096},
		{"4K", 4 << 10},
		{"32m", 32 << 20},
		{" 1G ", 1 << 30},
		{fmt.Sprint(math.MaxInt), math.MaxInt},
		{fmt.Sprint(math.MaxInt>>30) + "G", math.MaxInt >> 30 << 30},
	} {
		if got, err := parseSize(tc.in); err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		"", "K", "-4K", "0", "4X", "4.5M",
		"8589934592G",  // wrapped to math.MinInt64
		"17179869185G", // wrapped to 1 GiB
		fmt.Sprint(math.MaxInt>>20+1) + "M",
	} {
		if got, err := parseSize(in); err == nil {
			t.Errorf("parseSize(%q) = %d, want an error", in, got)
		}
	}
}

// assertUsageError checks that membench args fails before anything is
// measured: non-zero exit, the one line want on stderr, nothing on
// stdout.
func assertUsageError(t *testing.T, want string, args ...string) {
	t.Helper()
	stdout, stderr, code := runBin(t, args...)
	if code == 0 {
		t.Errorf("membench %v exited 0", args)
	}
	if strings.TrimSpace(stderr) != want {
		t.Errorf("membench %v: stderr %q, want %q", args, stderr, want)
	}
	if stdout != "" {
		t.Errorf("membench %v printed %q before failing", args, stdout)
	}
}

// TestBadSizesExitNonZero checks that a bad sweep is a usage error.
func TestBadSizesExitNonZero(t *testing.T) {
	assertUsageError(t, "membench: -max 4K not above -min 64K", "-min", "64K", "-max", "4K")
	assertUsageError(t, `membench: bad size "8589934592G"`, "-min", "8589934592G", "-max", "16K")
}

// TestNUMAWithLadderFlagsExitNonZero: -numa replaces the ladder, so
// asking for the ladder's TLB sweep or hierarchy fit beside it is a
// usage error, not a silently dropped flag.
func TestNUMAWithLadderFlagsExitNonZero(t *testing.T) {
	const want = "membench: -numa runs instead of the ladder: it does not combine with -fit or -tlb"
	for _, flags := range [][]string{{"-tlb"}, {"-fit"}, {"-tlb", "-fit"}} {
		assertUsageError(t, want, append([]string{"-numa", "-min", "4K", "-max", "64K", "-points", "1",
			"-iters", "4096", "-trials", "1"}, flags...)...)
	}
}

// assertHeaders fails t unless stdout holds every header. Column
// padding follows the widest cell, so the comparison is field-wise.
func assertHeaders(t *testing.T, stdout string, headers ...string) {
	t.Helper()
	squeezed := strings.Join(strings.Fields(stdout), " ")
	for _, header := range headers {
		if !strings.Contains(squeezed, header) {
			t.Errorf("output lacks %q:\n%s", header, stdout)
		}
	}
}

// TestHostLadderAndFit runs the measuring path once at the smallest
// useful parameters. The numbers are the host's, so only the shape is
// asserted: both blocks appear, under their headers.
func TestHostLadderAndFit(t *testing.T) {
	stdout, stderr, code := runBin(t, "-min", "4K", "-max", "64K", "-points", "1",
		"-iters", "4096", "-trials", "1", "-fit")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	assertHeaders(t, stdout,
		"== Pointer-chase latency ladder (host) ==",
		"# series, working set (bytes), ns/access",
		"== Fitted hierarchy (host) ==",
		"level capacity latency (ns) R2")
}

// TestHostTLB runs the TLB sweep once at tiny parameters.
func TestHostTLB(t *testing.T) {
	stdout, stderr, code := runBin(t, "-min", "4K", "-max", "16K", "-points", "1",
		"-iters", "4096", "-trials", "1", "-tlb", "-tlbpages", "64")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	assertHeaders(t, stdout,
		"== Pointer-chase latency ladder (host) ==",
		"== TLB stress (host) ==",
		"# series, pages touched, ns/access")
}

// TestHostNUMA runs the placement probe once at tiny parameters. On a
// UMA host the ladders coincide; either way all three series and the
// split table appear.
func TestHostNUMA(t *testing.T) {
	stdout, stderr, code := runBin(t, "-min", "4K", "-max", "64K", "-points", "1",
		"-iters", "4096", "-trials", "1", "-numa")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	assertHeaders(t, stdout,
		"== NUMA placement latency ladder (host) ==",
		"== Fitted NUMA split (host) ==",
		"local (ns) remote (ns) ratio R2")
	for _, p := range mem.Placements {
		if !strings.Contains(stdout, "measured/"+p.String()) {
			t.Errorf("output lacks the %s series:\n%s", p, stdout)
		}
	}
}
