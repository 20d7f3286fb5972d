package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from the current output")

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

// TestModeledOutputGolden pins the paths that evaluate a preset's
// analytic model: they read no clock, so their bytes are a function of
// the preset. Regenerate on purpose with
//
//	go test ./cmd/membench -run TestModeledOutputGolden -update-golden
func TestModeledOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"list.txt", []string{"-list"}},
		{"model_bgp-64n.txt", []string{"-model", "bgp-64n"}},
		{"model_bgp-64n_paged.txt", []string{"-model", "bgp-64n", "-mode", "paged"}},
		{"model_fat-1n_numa.txt", []string{"-model", "fat-1n", "-numa"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".txt"), func(t *testing.T) {
			got, stderr, code := runBin(t, tc.args...)
			if code != 0 || stderr != "" {
				t.Fatalf("membench %v: exit %d, stderr %q", tc.args, code, stderr)
			}
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("membench %v diverged from %s\n--- got ---\n%s--- want ---\n%s", tc.args, path, got, want)
			}
		})
	}
}

func TestBadModelAndModeExitNonZero(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-model", "cray-1"}, `membench: unknown platform "cray-1" (use -list)`},
		{[]string{"-model", "bgp-64n", "-mode", "huge"}, `membench: unknown mode "huge" (want paged or bigmem)`},
	} {
		stdout, stderr, code := runBin(t, tc.args...)
		if code == 0 {
			t.Errorf("membench %v exited 0", tc.args)
		}
		if strings.TrimSpace(stderr) != tc.want {
			t.Errorf("membench %v: stderr %q, want %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("membench %v printed %q before failing", tc.args, stdout)
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
	// Column padding follows the widest cell, so compare field-wise.
	squeezed := strings.Join(strings.Fields(stdout), " ")
	for _, header := range []string{
		"== Pointer-chase latency ladder (host) ==",
		"# series, working set (bytes), ns/access",
		"== Fitted hierarchy (host) ==",
		"level capacity latency (ns) R2",
	} {
		if !strings.Contains(squeezed, header) {
			t.Errorf("host run output lacks %q:\n%s", header, stdout)
		}
	}
}
